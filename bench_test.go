// Benchmark harness: one benchmark per table and figure of the SafeGuard
// paper's evaluation, printing the same rows/series the paper reports
// (run with `go test -bench=. -benchmem`). Each benchmark executes its
// experiment at the Quick preset; the cmd/ binaries run the same
// experiments at arbitrary budgets. Paper-vs-measured outcomes are recorded
// in EXPERIMENTS.md.
package safeguard_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"safeguard/internal/analysis"
	bits2 "safeguard/internal/bits"
	"safeguard/internal/ecc"
	"safeguard/internal/eccploit"
	"safeguard/internal/experiments"
	fm "safeguard/internal/faultmodel"
	"safeguard/internal/faultsim"
	"safeguard/internal/mac"
	"safeguard/internal/memctrl"
	"safeguard/internal/report"
	"safeguard/internal/rowhammer"
	"safeguard/internal/sim"
	"safeguard/internal/workload"
)

// printOnce guards the one-time textual output of each benchmark so
// repeated b.N iterations (or -count runs) do not spam the log.
var printOnce sync.Map

func once(name string, f func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		f()
	}
}

// benchPerfConfig is the figure-regeneration budget: large enough for
// stable shapes, small enough for a benchmark run.
func benchPerfConfig() experiments.PerfConfig {
	cfg := experiments.QuickPerf()
	return cfg
}

// ---------------------------------------------------------------------------
// Table I and Figure 1a: the falling RH-Threshold
// ---------------------------------------------------------------------------

func BenchmarkTable1RHThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(rowhammer.ThresholdHistory) != 6 {
			b.Fatal("Table I incomplete")
		}
	}
	once("table1", func() {
		t := report.NewTable("\nTable I: Row-Hammer threshold over time", "generation", "threshold", "year")
		for _, e := range rowhammer.ThresholdHistory {
			t.AddRowStrings(e.Generation, fmt.Sprint(e.Threshold), fmt.Sprint(e.Year))
		}
		t.Render(os.Stdout)
	})
	first := rowhammer.ThresholdHistory[0].Threshold
	last := rowhammer.ThresholdHistory[len(rowhammer.ThresholdHistory)-1].Threshold
	b.ReportMetric(float64(first)/float64(last), "threshold_reduction_x")
}

func BenchmarkFigure1aThresholdTrend(b *testing.B) {
	var minT int
	for i := 0; i < b.N; i++ {
		minT = rowhammer.ThresholdHistory[0].Threshold
		for _, e := range rowhammer.ThresholdHistory {
			if e.Threshold < minT {
				minT = e.Threshold
			}
		}
	}
	b.ReportMetric(float64(minT), "min_threshold_2020")
}

// ---------------------------------------------------------------------------
// Figures 1b and 2: attacks and breakthroughs
// ---------------------------------------------------------------------------

func BenchmarkFigure1bHalfDouble(b *testing.B) {
	var results []experiments.Figure1bResult
	for i := 0; i < b.N; i++ {
		results = experiments.Figure1b(7)
	}
	once("fig1b", func() {
		fmt.Println("\nFigure 1b/1c: breakthrough attacks and detection outcomes")
		for _, r := range results {
			fmt.Printf("  %s\n", r.Attack)
			for _, d := range r.Detection {
				fmt.Printf("    %s\n", d)
			}
		}
	})
	totalSilentSafeGuard := 0
	d2 := 0
	for _, r := range results {
		d2 += r.DistanceTwoFlips
		for _, d := range r.Detection {
			if d.Scheme != "SECDED" {
				totalSilentSafeGuard += d.Silent
			}
		}
	}
	b.ReportMetric(float64(d2), "distance2_flips")
	b.ReportMetric(float64(totalSilentSafeGuard), "safeguard_silent_lines")
	if totalSilentSafeGuard != 0 {
		b.Fatal("SafeGuard leaked silent corruption")
	}
}

func BenchmarkFigure2RowHammer(b *testing.B) {
	var r experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure2(uint64(i) + 1)
	}
	once("fig2", func() {
		fmt.Printf("\nFigure 2: double-sided hammering at threshold %d -> %d victim flips after %d activations\n",
			r.Threshold, r.FlipsInNeighbors, r.ActivationsUsed)
	})
	b.ReportMetric(float64(r.FlipsInNeighbors), "victim_flips")
}

// ---------------------------------------------------------------------------
// Table IV: resiliency matrix
// ---------------------------------------------------------------------------

func BenchmarkTable4ResiliencyMatrix(b *testing.B) {
	var m map[string]map[fm.Mode]experiments.Table4Cell
	for i := 0; i < b.N; i++ {
		m = experiments.Table4(500, 1)
	}
	once("table4", func() {
		t := report.NewTable("\nTable IV: resiliency of SECDED vs SafeGuard",
			"fault mode", "SECDED det/cor", "SafeGuard det/cor")
		yn := func(v bool, silent int) string {
			if v {
				return "yes"
			}
			if silent > 0 {
				return "*"
			}
			return "no"
		}
		for _, mode := range fm.Modes {
			s, g := m["SECDED"][mode], m["SafeGuard"][mode]
			t.AddRowStrings(mode.String(),
				yn(s.Detect, s.Silent)+"/"+yn(s.Correct, 0),
				yn(g.Detect, g.Silent)+"/"+yn(g.Correct, 0))
		}
		t.Render(os.Stdout)
	})
	silent := 0
	for _, cell := range m["SafeGuard"] {
		silent += cell.Silent
	}
	b.ReportMetric(float64(silent), "safeguard_silent")
}

// ---------------------------------------------------------------------------
// Figures 6 and 10: reliability
// ---------------------------------------------------------------------------

func BenchmarkFigure6ReliabilitySECDED(b *testing.B) {
	cfg := experiments.QuickReliability()
	var rs []faultsim.Result
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = experiments.Figure6(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	once("fig6", func() {
		fmt.Println("\nFigure 6: 7-year failure probability (x8 modules)")
		for _, r := range rs {
			fmt.Printf("  %s\n", r)
		}
	})
	base := rs[0].Probability()
	b.ReportMetric(rs[1].Probability()/base, "noparity_vs_secded_x")
	b.ReportMetric(rs[2].Probability()/base, "parity_vs_secded_x")
}

func BenchmarkFigure10ReliabilityChipkill(b *testing.B) {
	cfg := experiments.QuickReliability()
	var out map[float64][]faultsim.Result
	for i := 0; i < b.N; i++ {
		var err error
		out, err = experiments.Figure10(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	once("fig10", func() {
		fmt.Println("\nFigure 10: 7-year failure probability (x4 modules)")
		for _, scale := range []float64{1, 10} {
			for _, r := range out[scale] {
				fmt.Printf("  FITx%-2.0f %s\n", scale, r)
			}
		}
	})
	if ck := out[10][0].Probability(); ck > 0 {
		b.ReportMetric(out[10][1].Probability()/ck, "safeguard_vs_chipkill_10x")
	}
}

// ---------------------------------------------------------------------------
// Figures 7, 11, 12, 13: performance
// ---------------------------------------------------------------------------

func renderPerfBench(title string, res experiments.PerfResult, schemes ...sim.Scheme) {
	headers := append([]string{"workload", "base IPC"}, make([]string, 0, len(schemes))...)
	for _, s := range schemes {
		headers = append(headers, s.String())
	}
	t := report.NewTable(title, headers...)
	for _, row := range res.Rows {
		cells := []string{row.Workload, fmt.Sprintf("%.3f", row.BaseIPC)}
		for _, s := range schemes {
			cells = append(cells, report.Percent(row.Slowdown[s]))
		}
		t.AddRowStrings(cells...)
	}
	cells := []string{"AVERAGE", ""}
	for _, s := range schemes {
		cells = append(cells, report.Percent(res.Average(s)))
	}
	t.AddRowStrings(cells...)
	t.Render(os.Stdout)
}

func BenchmarkFigure7PerfSECDED(b *testing.B) {
	cfg := benchPerfConfig()
	var res experiments.PerfResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure7(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	once("fig7", func() {
		renderPerfBench("\nFigure 7: SafeGuard vs SECDED (paper: avg 0.7%, omnetpp worst 3.6%)", res, sim.SafeGuard)
	})
	b.ReportMetric(res.Average(sim.SafeGuard)*100, "avg_slowdown_%")
	_, worst := res.Worst(sim.SafeGuard)
	b.ReportMetric(worst*100, "worst_slowdown_%")
}

func BenchmarkFigure11PerfChipkill(b *testing.B) {
	// The Chipkill-based timing model matches the SECDED one (the paper
	// reports the same 0.7%); run it over the memory-heavy subset.
	cfg := benchPerfConfig()
	cfg.Workloads = []string{"mcf", "omnetpp", "lbm", "bwaves", "fotonik3d", "leela"}
	var res experiments.PerfResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure11(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	once("fig11", func() {
		renderPerfBench("\nFigure 11: SafeGuard vs Chipkill (paper: avg 0.7%)", res, sim.SafeGuard)
	})
	b.ReportMetric(res.Average(sim.SafeGuard)*100, "avg_slowdown_%")
}

func BenchmarkFigure12PerfMACOrgs(b *testing.B) {
	cfg := benchPerfConfig()
	var res experiments.PerfResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure12(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	once("fig12", func() {
		renderPerfBench("\nFigure 12: MAC organizations (paper: SafeGuard 0.7%, Synergy 7.8%, SGX 18.7%)",
			res, sim.SafeGuard, sim.SynergyStyle, sim.SGXStyle)
	})
	b.ReportMetric(res.Average(sim.SafeGuard)*100, "safeguard_%")
	b.ReportMetric(res.Average(sim.SynergyStyle)*100, "synergy_%")
	b.ReportMetric(res.Average(sim.SGXStyle)*100, "sgx_%")
}

func BenchmarkFigure13MACLatency(b *testing.B) {
	cfg := benchPerfConfig()
	cfg.Workloads = []string{"mcf", "omnetpp", "lbm", "gcc", "leela"}
	var points []experiments.Figure13Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Figure13(context.Background(), cfg, []int64{8, 16, 40, 80})
		if err != nil {
			b.Fatal(err)
		}
	}
	once("fig13", func() {
		t := report.NewTable("\nFigure 13: MAC-latency sensitivity (paper: SafeGuard 0.7%@8 to 5.8%@80)",
			"MAC cycles", "SafeGuard", "Synergy-style", "SGX-style")
		for _, p := range points {
			t.AddRowStrings(fmt.Sprint(p.MACLatencyCPU),
				report.Percent(p.Average[sim.SafeGuard]),
				report.Percent(p.Average[sim.SynergyStyle]),
				report.Percent(p.Average[sim.SGXStyle]))
		}
		t.Render(os.Stdout)
	})
	b.ReportMetric(points[len(points)-1].Average[sim.SafeGuard]*100, "safeguard_at_80cyc_%")
}

// ---------------------------------------------------------------------------
// Table V and the analytic sections
// ---------------------------------------------------------------------------

func BenchmarkTable5StorageOverhead(b *testing.B) {
	var rows []analysis.StorageRow
	for i := 0; i < b.N; i++ {
		rows = analysis.StorageOverheadTable(16, 64, 256)
	}
	once("table5", func() {
		t := report.NewTable("\nTable V: usable capacity", "baseline", "SGX/Synergy", "SafeGuard")
		for _, r := range rows {
			t.AddRowStrings(fmt.Sprintf("%dGB", r.BaselineGB),
				fmt.Sprintf("%dGB", r.SGXSynergyUsableGB), fmt.Sprintf("%dGB", r.SafeGuardUsableGB))
		}
		t.Render(os.Stdout)
	})
	b.ReportMetric(float64(rows[0].SGXSynergyLossGB), "sgx_loss_gb_of_16")
}

func BenchmarkSection4BBirthday(b *testing.B) {
	m := analysis.NewBirthdayModel(64 << 30)
	var p float64
	for i := 0; i < b.N; i++ {
		p = m.SECDEDSuperiorityProbability()
	}
	once("sec4b", func() {
		fmt.Printf("\nSection IV-B: P(SECDED beats SafeGuard on accumulated bit faults) = %.3g (paper: 3.51e-5)\n", p)
	})
	b.ReportMetric(p*1e5, "secded_superiority_x1e-5")
}

func BenchmarkSection5CMACEscape(b *testing.B) {
	var iter, eager experiments.EscapeMeasurement
	for i := 0; i < b.N; i++ {
		var err error
		iter, err = experiments.MeasureEscapes(ecc.Iterative, 6, 5000, 3)
		if err != nil {
			b.Fatal(err)
		}
		eager, err = experiments.MeasureEscapes(ecc.Eager, 6, 5000, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	once("sec5c", func() {
		fmt.Printf("\nSection V-C: permanent-chip-failure MAC exposure at 6-bit MAC\n")
		fmt.Printf("  iterative: %d faulty checks, %d escapes; eager: %d faulty checks, %d escapes\n",
			iter.FaultyMACChecks, iter.Escapes, eager.FaultyMACChecks, eager.Escapes)
	})
	b.ReportMetric(float64(iter.FaultyMACChecks), "iterative_faulty_checks")
	b.ReportMetric(float64(eager.FaultyMACChecks), "eager_faulty_checks")
}

func BenchmarkSection7EMACCollision(b *testing.B) {
	var secded, iter, eager float64
	for i := 0; i < b.N; i++ {
		secded, iter, eager = analysis.Section7EBounds()
	}
	once("sec7e", func() {
		fmt.Printf("\nSection VII-E: attack years to MAC escape — SECDED-46: %.0f (1000+), iterative-32: %.2f (~0.5), eager-32: %.1f (~9)\n",
			secded, iter, eager)
	})
	b.ReportMetric(eager/iter, "eager_vs_iterative_x")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md's design-choice benches)
// ---------------------------------------------------------------------------

func BenchmarkAblationEagerCorrection(b *testing.B) {
	// Correction-policy ablation: MAC checks per read under a permanent
	// chip failure (latency currency of Section V).
	var perRead [3]float64
	for i := 0; i < b.N; i++ {
		for pi, policy := range []ecc.CorrectionPolicy{ecc.Iterative, ecc.History, ecc.Eager} {
			m, err := experiments.MeasureEscapes(policy, 32, 300, 9)
			if err != nil {
				b.Fatal(err)
			}
			perRead[pi] = float64(m.FaultyMACChecks+m.Trials) / float64(m.Trials)
		}
	}
	once("ablation-eager", func() {
		fmt.Printf("\nAblation: MAC checks/read under permanent chip failure — iterative %.2f, history %.2f, eager %.2f\n",
			perRead[0], perRead[1], perRead[2])
	})
	b.ReportMetric(perRead[0], "iterative_checks_per_read")
	b.ReportMetric(perRead[2], "eager_checks_per_read")
}

func BenchmarkAblationMACWidth(b *testing.B) {
	// MAC width vs escape rate under iterative correction, where every
	// fault incurs ~7 checks against faulty data: the empirical rate must
	// track 1-(1-2^-n)^7. (Eager's rate is ~0 by construction: after the
	// first access it never checks faulty data — see Section V-C bench.)
	var rates []float64
	widths := []int{4, 6, 8, 10}
	for i := 0; i < b.N; i++ {
		rates = rates[:0]
		for _, w := range widths {
			m, err := experiments.MeasureEscapes(ecc.Iterative, w, 20000, 11)
			if err != nil {
				b.Fatal(err)
			}
			rates = append(rates, m.Rate())
		}
	}
	once("ablation-macwidth", func() {
		fmt.Println("\nAblation: MAC width vs empirical escape rate (iterative, expect ~1-(1-2^-n)^7):")
		for i, w := range widths {
			p := 1 / float64(uint(1)<<uint(w))
			expect := 1 - pow(1-p, 7)
			fmt.Printf("  %2d-bit MAC: measured %.5f, model %.5f\n", w, rates[i], expect)
		}
	})
	b.ReportMetric(rates[0], "escape_rate_4bit")
}

func benchMAC() *mac.Keyed {
	var key [16]byte
	for i := range key {
		key[i] = byte(i + 3)
	}
	return mac.NewKeyed(key)
}

func pow(x float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= x
	}
	return out
}

func BenchmarkAblationMitigations(b *testing.B) {
	// Mitigation choice vs breakthrough flips under the strongest
	// applicable pattern.
	type result struct {
		name  string
		flips int
	}
	var results []result
	for i := 0; i < b.N; i++ {
		results = results[:0]
		cfg := rowhammer.DefaultConfig()
		cfg.Rows = 8192
		cfg.Seed = 13
		mk := []struct {
			name, mit string
			pat       func() rowhammer.Pattern
		}{
			{"none/double-sided", "none",
				func() rowhammer.Pattern { return &rowhammer.DoubleSided{Victim: 4000} }},
			{"TRR/TRRespass", "trr",
				func() rowhammer.Pattern { return &rowhammer.ManySided{Victim: 4000, Dummies: 12, DummyBase: 6000} }},
			{"PARA/half-double", "para",
				func() rowhammer.Pattern { return &rowhammer.HalfDouble{Victim: 4000} }},
			{"Graphene/half-double", "graphene",
				func() rowhammer.Pattern { return &rowhammer.HalfDouble{Victim: 4000, NearEvery: 680} }},
		}
		for _, m := range mk {
			mit, err := memctrl.NewMitigationPlugin(m.mit, cfg.Threshold, 13)
			if err != nil {
				b.Fatal(err)
			}
			res := rowhammer.RunAttack(rowhammer.NewBank(cfg), mit, m.pat(), 1)
			results = append(results, result{m.name, res.TotalFlips})
		}
	}
	once("ablation-mitigations", func() {
		fmt.Println("\nAblation: breakthrough flips per mitigation/pattern pair:")
		for _, r := range results {
			fmt.Printf("  %-22s %d flips\n", r.name, r.flips)
		}
	})
	for _, r := range results {
		if r.flips == 0 {
			b.Fatalf("%s produced no flips", r.name)
		}
	}
}

func BenchmarkAblationScheduler(b *testing.B) {
	// FR-FCFS vs FCFS: row-hit rate and IPC on a streaming workload.
	p, _ := workload.ByName("gcc")
	var frIPC, fcfsIPC, frHit, fcfsHit float64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Workload = p
		cfg.WarmupInstr = 80_000
		cfg.InstrPerCore = 80_000
		// Compare pure scheduling: prefetch bursts would otherwise flood
		// the in-order queue and starve demands, swamping the effect.
		cfg.PrefetchDegree = 0
		fr, err := sim.NewSystem(cfg).Run()
		if err != nil {
			b.Fatal(err)
		}
		cfg.FCFSScheduler = true
		fc, err := sim.NewSystem(cfg).Run()
		if err != nil {
			b.Fatal(err)
		}
		frIPC, fcfsIPC = fr.HarmonicMeanIPC(), fc.HarmonicMeanIPC()
		frHit, fcfsHit = fr.MCStats.RowHitRate(), fc.MCStats.RowHitRate()
	}
	once("ablation-sched", func() {
		fmt.Printf("\nAblation: FR-FCFS IPC %.3f (row hits %.2f) vs FCFS IPC %.3f (row hits %.2f)\n",
			frIPC, frHit, fcfsIPC, fcfsHit)
	})
	b.ReportMetric(frIPC/fcfsIPC, "frfcfs_speedup_x")
}

// ---------------------------------------------------------------------------
// Engine: skip-ahead vs per-cycle simulation loop
// ---------------------------------------------------------------------------

func BenchmarkEngineIdleHeavy(b *testing.B) {
	// The idle-heavy extreme: a single core running a pure pointer chase
	// (every load depends on the previous one and misses to DRAM — the
	// lat_mem_rd pattern). One request is in flight at a time, so the
	// core sits ROB-full and the controller sits between events for ~98%
	// of cycles, in ~50-cycle spans — exactly what the event engine's
	// time wheel skips. The two engines produce bit-identical results
	// (engine_ab_test.go); this benchmark measures the wall-clock win,
	// surfaced by bench2json as the cycle/event ns/op ratio.
	p := workload.Params{Name: "pchase", LoadFrac: 0.30, StoreFrac: 0.02,
		ChaseFrac: 1.0, ColdWS: 1 << 21, HotWS: 1 << 9, StreamWS: 1 << 10, StoreWS: 1 << 10}
	ipc := map[string]float64{}
	for _, engine := range sim.EngineNames() {
		engine := engine
		b.Run(engine, func(b *testing.B) {
			var simulated int64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig()
				cfg.Cores = 1
				cfg.PrefetchDegree = 0
				cfg.Workload = p
				cfg.WarmupInstr = 10_000
				cfg.InstrPerCore = 40_000
				cfg.Engine = engine
				res, err := sim.NewSystem(cfg).Run()
				if err != nil {
					b.Fatal(err)
				}
				ipc[engine] = res.HarmonicMeanIPC()
				simulated = 0
				for _, c := range res.CoreCycles {
					simulated += c
				}
			}
			b.ReportMetric(ipc[engine], "ipc")
			b.ReportMetric(float64(simulated)/float64(b.Elapsed().Nanoseconds()/int64(b.N)),
				"simcycles_per_ns")
		})
	}
	once("engine-idleheavy", func() {
		fmt.Printf("\nEngine: pchase harmonic-mean IPC — cycle %.4f, event %.4f (must match)\n",
			ipc["cycle"], ipc["event"])
	})
	if ipc["cycle"] != ipc["event"] {
		b.Fatalf("engines disagree on IPC: cycle %v event %v", ipc["cycle"], ipc["event"])
	}
}

// ---------------------------------------------------------------------------
// Extension benches: CRC strawman, ECCploit, BlockHammer, scrubbing
// ---------------------------------------------------------------------------

func BenchmarkAblationCRCvsMAC(b *testing.B) {
	// Section IV-A's rejection of CRC, quantified: the adversarial
	// forgery succeeds on every attempt against the CRC layout and never
	// against the keyed MAC.
	cCRC := ecc.NewCRCDetect()
	forgeries, trials := 0, 0
	for i := 0; i < b.N; i++ {
		var l bits2.Line
		l = l.WithWord(0, uint64(i)*0x9E3779B97F4A7C15)
		addr := uint64(i) * 64
		_ = cCRC.Encode(l, addr)
		attacked := l.FlipBit(int(uint(i) % 512)).FlipBit(int(uint(i+101) % 512))
		forged := cCRC.RecomputeForgedMeta(attacked)
		res := cCRC.Decode(attacked, forged, addr)
		trials++
		if res.Status == ecc.OK && res.Line == attacked {
			forgeries++
		}
	}
	once("ablation-crc", func() {
		fmt.Printf("\nAblation: CRC forgery success %d/%d (MAC layout: 0 by keyed construction)\n", forgeries, trials)
	})
	b.ReportMetric(float64(forgeries)/float64(trials), "crc_forgery_rate")
}

func BenchmarkCase3ECCploit(b *testing.B) {
	// Section II-E Case-3: the timing-channel escalation against SECDED
	// vs SafeGuard.
	var sec, sg eccploit.Outcome
	for i := 0; i < b.N; i++ {
		cfg := eccploit.DefaultConfig()
		cfg.Bank.Seed = 3
		sec, sg = eccploit.Compare(cfg,
			ecc.NewSECDED(), ecc.NewSafeGuardSECDED(benchMAC()))
	}
	once("case3", func() {
		fmt.Println("\nCase-3 (ECCploit escalation):")
		fmt.Printf("  %s\n  %s\n", sec, sg)
	})
	b.ReportMetric(float64(sec.SilentAtWindow), "secded_silent_window")
	b.ReportMetric(float64(sg.SilentAtWindow), "safeguard_silent_window")
	if sg.Succeeded() {
		b.Fatal("SafeGuard silently corrupted under ECCploit")
	}
}

func BenchmarkAblationBlockHammer(b *testing.B) {
	// Section VIII: BlockHammer stops every pattern when sized right, at
	// the cost of throttling benign hot rows; and fails when the module's
	// real threshold undercuts the design threshold.
	var stopped, broken bool
	var throttleFrac float64
	for i := 0; i < b.N; i++ {
		cfg := rowhammer.DefaultConfig()
		cfg.Rows = 8192
		cfg.Seed = 17
		run := func(designThreshold int) rowhammer.AttackResult {
			bh, err := memctrl.NewMitigationPlugin("blockhammer", designThreshold, 17)
			if err != nil {
				b.Fatal(err)
			}
			return rowhammer.RunAttack(rowhammer.NewBank(cfg), bh, &rowhammer.DoubleSided{Victim: 4000}, 1)
		}
		res := run(cfg.Threshold)
		stopped = res.TotalFlips == 0
		throttleFrac = float64(res.Throttled) / memctrl.ActsPerWindow
		broken = run(3*cfg.Threshold).TotalFlips > 0 // sized for an older module
	}
	once("ablation-blockhammer", func() {
		fmt.Printf("\nAblation: BlockHammer — correctly sized: stopped=%v (%.0f%% of attack activations throttled); under-sized for the module: broken=%v\n",
			stopped, throttleFrac*100, broken)
	})
	if !stopped || !broken {
		b.Fatalf("BlockHammer ablation shape wrong: stopped=%v broken=%v", stopped, broken)
	}
	b.ReportMetric(throttleFrac, "attack_throttle_fraction")
}

func BenchmarkAblationScrubbing(b *testing.B) {
	// Patrol scrubbing removes transient pair-partners: Chipkill's
	// all-pair failure probability drops.
	var off, on float64
	for i := 0; i < b.N; i++ {
		base := faultsim.Config{Modules: 150_000, Years: 7, Seed: 23, FITScale: 10}
		offR, err := faultsim.Run(faultsim.ChipkillEval{}, base)
		if err != nil {
			b.Fatal(err)
		}
		scrub := base
		scrub.ScrubIntervalHours = 24
		onR, err := faultsim.Run(faultsim.ChipkillEval{}, scrub)
		if err != nil {
			b.Fatal(err)
		}
		off, on = offR.Probability(), onR.Probability()
	}
	once("ablation-scrub", func() {
		fmt.Printf("\nAblation: Chipkill P(fail,7y) at 10x FIT — no scrub %.6f, daily scrub %.6f\n", off, on)
	})
	b.ReportMetric(on/off, "scrubbed_vs_unscrubbed_x")
}

func BenchmarkExtensionFullSGX(b *testing.B) {
	// Figure 12 extended with the metadata the paper excluded: the full
	// SGX organization (MAC + counters + integrity tree) against the
	// MAC-only SGX-style bar and SafeGuard.
	// A reduced budget: SGX-full's amplified traffic makes full-figure
	// budgets disproportionately slow, and the extension's claim is
	// qualitative (strictly more expensive than MAC-only SGX).
	cfg := benchPerfConfig()
	cfg.Workloads = []string{"mcf", "lbm", "leela"}
	cfg.InstrPerCore = 120_000
	cfg.WarmupInstr = 120_000
	cfg.Seeds = []uint64{1}
	var res experiments.PerfResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunSchemes(context.Background(), cfg, []sim.Scheme{sim.SafeGuard, sim.SGXStyle, sim.SGXFullStyle})
		if err != nil {
			b.Fatal(err)
		}
	}
	once("ext-fullsgx", func() {
		renderPerfBench("\nExtension: full SGX (counters+tree) vs the paper's MAC-only comparison",
			res, sim.SafeGuard, sim.SGXStyle, sim.SGXFullStyle)
	})
	b.ReportMetric(res.Average(sim.SGXFullStyle)*100, "sgx_full_%")
	if res.Average(sim.SGXFullStyle) < res.Average(sim.SGXStyle)*0.95 {
		b.Fatal("full SGX should not beat MAC-only SGX")
	}
}

func BenchmarkWarmStartPool(b *testing.B) {
	// Checkpoint/restore payoff: the same sweep cold (every run pays the
	// warm-up phase) vs against a populated warm-start pool (every run
	// restores a post-warm-up sgsnap/1 capture). Warm-up dominates at
	// this budget, so the warm/cold ratio is the speedup a -resume sweep
	// or a fleet checkpoint resume buys. The two paths must agree
	// exactly — restore-equals-uninterrupted is the pool's contract.
	cfg := benchPerfConfig()
	cfg.Workloads = []string{"mcf", "leela"}
	cfg.InstrPerCore = 100_000
	cfg.WarmupInstr = 300_000
	schemes := []sim.Scheme{sim.SafeGuard}

	coldStart := time.Now()
	cold, err := experiments.RunSchemes(context.Background(), cfg, schemes)
	if err != nil {
		b.Fatal(err)
	}
	coldElapsed := time.Since(coldStart)
	pool := experiments.NewMemWarmStore()
	cfg.WarmPool = pool
	if _, err := experiments.RunSchemes(context.Background(), cfg, schemes); err != nil {
		b.Fatal(err) // populates the pool (cold + deposit)
	}
	warmStart := time.Now()
	if _, err := experiments.RunSchemes(context.Background(), cfg, schemes); err != nil {
		b.Fatal(err)
	}
	warmElapsed := time.Since(warmStart)
	// The bound, not just the report: with warm-up at 3/4 of the budget a
	// pooled run must beat the cold one outright — if restoring ever costs
	// more than the warm phase it skips, the pool has lost its reason to
	// exist. The ~3x observed margin keeps this assert far from CI noise.
	if warmElapsed >= coldElapsed {
		b.Fatalf("warm-pooled run (%v) not faster than cold (%v)", warmElapsed, coldElapsed)
	}
	b.ReportMetric(float64(coldElapsed)/float64(warmElapsed), "cold_over_warm_x")

	b.Run("cold", func(b *testing.B) {
		c := cfg
		c.WarmPool = nil
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunSchemes(context.Background(), c, schemes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		var warm experiments.PerfResult
		for i := 0; i < b.N; i++ {
			var err error
			warm, err = experiments.RunSchemes(context.Background(), cfg, schemes)
			if err != nil {
				b.Fatal(err)
			}
		}
		for i, row := range warm.Rows {
			for s, v := range row.Slowdown {
				if cold.Rows[i].Slowdown[s] != v {
					b.Fatalf("warm-pooled %s/%s slowdown %v diverged from cold %v",
						row.Workload, s, v, cold.Rows[i].Slowdown[s])
				}
			}
		}
		b.ReportMetric(float64(pool.Hits), "pool_hits")
	})
}
