// Command sgrel regenerates the SafeGuard paper's reliability results:
//
//	sgrel -fig6     7-year lifetime: SECDED vs SafeGuard (± column parity)
//	sgrel -fig10    7-year lifetime: Chipkill vs SafeGuard-Chipkill (1x/10x FIT)
//	sgrel -matrix   Table IV resiliency matrix via fault injection
//	sgrel -escape   empirical MAC-escape rates (iterative vs eager)
//	sgrel -all      everything
//
// -modules sets the Monte-Carlo population (paper: 10M; default 1M).
// -ci switches the Monte-Carlo runs to adaptive sampling: blocks are
// simulated until the Wilson 95% confidence interval on P(fail) is
// within ±ci, with -modules acting as a cap; the stopping point (blocks
// run, achieved half-width) is reported alongside the results.
// -json emits the Monte-Carlo studies as JSON (the sgserve wire form)
// instead of tables.
// -scrub and -retire attach the DUE-response lifetime policies (patrol
// scrubbing and row retirement, in hours between sweeps) to every
// Monte-Carlo run; SIGINT prints whatever finished.
// -snapshot DIR checkpoints each finished Monte-Carlo study into a
// content-addressed artifact store; -resume renders stored studies
// instantly instead of recomputing (tables stay bit-identical).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"safeguard/internal/cliflags"
	"safeguard/internal/ecc"
	"safeguard/internal/experiments"
	fm "safeguard/internal/faultmodel"
	"safeguard/internal/faultsim"
	"safeguard/internal/report"
	"safeguard/internal/resultcache"
)

func main() {
	var (
		fig6    = flag.Bool("fig6", false, "run Figure 6")
		fig10   = flag.Bool("fig10", false, "run Figure 10")
		matrix  = flag.Bool("matrix", false, "run the Table IV matrix")
		escape  = flag.Bool("escape", false, "run the MAC-escape measurement")
		all     = flag.Bool("all", false, "run everything")
		modules = flag.Int("modules", 1_000_000, "Monte-Carlo module population")
		seed    = flag.Uint64("seed", 42, "simulation seed")
		scrub   = flag.Float64("scrub", 0, "patrol-scrub interval in hours (0 = off)")
		retire  = flag.Float64("retire", 0, "row-retirement sweep interval in hours (0 = off)")
		ci      = flag.Float64("ci", 0, "adaptive Monte-Carlo: stop when the Wilson 95% CI half-width on P(fail) drops below this (0 = fixed population)")
		jsonOut = flag.Bool("json", false, "emit Monte-Carlo results as JSON instead of tables")
	)
	tf := cliflags.Telemetry(flag.CommandLine)
	sf := cliflags.Snapshot()
	flag.Parse()
	if err := cliflags.Exclusive(*all, map[string]bool{
		"fig6": *fig6, "fig10": *fig10, "matrix": *matrix, "escape": *escape,
	}); err != nil {
		cliflags.Fail(err)
	}
	if err := sf.Validate(); err != nil {
		cliflags.Fail(err)
	}
	if *scrub < 0 || *retire < 0 {
		cliflags.Fail(fmt.Errorf("-scrub and -retire must be >= 0 hours"))
	}
	if *ci < 0 {
		cliflags.Fail(fmt.Errorf("-ci must be >= 0"))
	}
	if err := tf.Activate(); err != nil {
		cliflags.Fail(err)
	}
	defer tf.MustFinish()
	tf.SetTraceMeta("tool", "sgrel")
	tf.SetTraceMeta("seed", fmt.Sprint(*seed))
	cfg := faultsim.Config{
		Modules: *modules, Years: 7, FITScale: 1, Seed: *seed,
		ScrubIntervalHours: *scrub, RetireIntervalHours: *retire,
		CIHalfWidth: *ci,
		Telemetry:   tf.Registry,
	}
	if !*jsonOut {
		if *scrub > 0 || *retire > 0 {
			fmt.Printf("Lifetime policies: scrub every %gh, retire sweep every %gh (0 = off)\n\n", *scrub, *retire)
		}
		if *ci > 0 {
			fmt.Printf("Adaptive Monte-Carlo: stopping at Wilson 95%% CI half-width <= %g (population cap %d)\n\n", *ci, *modules)
		}
	}

	// SIGINT cancels the Monte-Carlo runs; completed schemes still print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// With -snapshot, each finished Monte-Carlo study is deposited in the
	// content-addressed store under its request hash; with -resume a
	// stored study renders instantly instead of recomputing. Cached
	// results are the same wire bytes sgserve would produce, so resuming
	// cannot change a single table cell.
	var store *resultcache.Cache
	if sf.Enabled() {
		var err error
		store, err = resultcache.New(resultcache.Options{Dir: sf.Dir, Telemetry: tf.Registry})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sgrel:", err)
			os.Exit(1)
		}
	}
	relCached := func(req *resultcache.Request, run func() ([]faultsim.Result, error)) ([]faultsim.Result, error) {
		if store == nil {
			return run()
		}
		hash, err := req.Hash()
		if err != nil {
			return nil, err
		}
		if sf.Resume {
			if a, ok, err := store.Get(hash); err == nil && ok {
				var wire resultcache.RelWire
				if err := json.Unmarshal(a.Result, &wire); err == nil {
					if rs, err := resultcache.RelResultsFromWire(wire); err == nil {
						return rs, nil
					}
				}
			}
		}
		rs, err := run()
		if err != nil {
			return rs, err
		}
		// Deposit is best-effort: a full disk must not fail the study.
		if raw, err := json.Marshal(resultcache.RelWireFromResults(rs)); err == nil {
			if a, err := resultcache.NewArtifact(req, raw); err == nil {
				_ = store.Put(a)
			}
		}
		return rs, nil
	}
	relRequest := func(evaluators []string, fitScale float64) *resultcache.Request {
		return &resultcache.Request{Kind: resultcache.KindRel, Rel: &resultcache.RelRequest{
			Evaluators: evaluators,
			Modules:    *modules, Years: 7, FITScale: fitScale, Seed: *seed,
			ScrubIntervalHours: *scrub, RetireIntervalHours: *retire, CIHalfWidth: *ci,
		}}
	}

	var jsonDoc struct {
		Fig6  *resultcache.RelWire           `json:"fig6,omitempty"`
		Fig10 map[string]resultcache.RelWire `json:"fig10,omitempty"`
	}
	if *fig6 || *all {
		rs, err := relCached(
			relRequest([]string{"SECDED", "SafeGuard-SECDED (no column parity)", "SafeGuard-SECDED"}, 1),
			func() ([]faultsim.Result, error) { return experiments.Figure6(ctx, cfg) })
		interrupted(err)
		if *jsonOut {
			w := resultcache.RelWireFromResults(rs)
			jsonDoc.Fig6 = &w
		} else {
			t := report.NewTable(fmt.Sprintf("Figure 6: probability of system failure over 7 years (%d modules; paper: no-parity ~1.25x SECDED, parity ~= SECDED)", *modules),
				"scheme", "P(fail) by year 1..7", "end-of-life", "vs SECDED")
			base := 0.0
			if len(rs) > 0 {
				base = rs[0].Probability()
			}
			for _, r := range rs {
				t.AddRowStrings(r.Scheme, probSeries(r), fmt.Sprintf("%.6f", r.Probability()),
					fmt.Sprintf("%.3fx", safeRatio(r.Probability(), base)))
			}
			t.Render(os.Stdout)
			adaptiveSummary(rs)
			fmt.Println()
		}
	}
	if *fig10 || *all {
		out := make(map[float64][]faultsim.Result)
		var err error
		for _, scale := range []float64{1, 10} {
			out[scale], err = relCached(
				relRequest([]string{"Chipkill", "SafeGuard-Chipkill"}, scale),
				func() ([]faultsim.Result, error) {
					c := cfg
					c.FITScale = scale
					return faultsim.RunAllContext(ctx, []faultsim.Evaluator{
						faultsim.ChipkillEval{},
						faultsim.SafeGuardChipkillEval{},
					}, c)
				})
			if err != nil {
				break
			}
		}
		interrupted(err)
		if *jsonOut {
			jsonDoc.Fig10 = map[string]resultcache.RelWire{
				"1x":  resultcache.RelWireFromResults(out[1]),
				"10x": resultcache.RelWireFromResults(out[10]),
			}
		} else {
			t := report.NewTable(fmt.Sprintf("Figure 10: Chipkill vs SafeGuard-Chipkill (%d modules; paper: virtually identical at 1x and 10x FIT)", *modules),
				"FIT scale", "scheme", "P(fail, 7y)")
			for _, scale := range []float64{1, 10} {
				for _, r := range out[scale] {
					t.AddRowStrings(fmt.Sprintf("%.0fx", scale), r.Scheme, fmt.Sprintf("%.6f", r.Probability()))
				}
			}
			t.Render(os.Stdout)
			for _, scale := range []float64{1, 10} {
				adaptiveSummary(out[scale])
			}
			fmt.Println()
		}
	}
	if *jsonOut && (jsonDoc.Fig6 != nil || jsonDoc.Fig10 != nil) {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonDoc); err != nil {
			fmt.Fprintln(os.Stderr, "sgrel:", err)
			os.Exit(1)
		}
	}
	if *matrix || *all {
		m := experiments.Table4(2000, *seed)
		t := report.NewTable("Table IV: resiliency of SECDED vs SafeGuard (per fault mode)",
			"fault mode", "SECDED detect", "SECDED correct", "SafeGuard detect", "SafeGuard correct")
		for _, mode := range fm.Modes {
			s, g := m["SECDED"][mode], m["SafeGuard"][mode]
			t.AddRowStrings(mode.String(), mark(s.Detect, s.Silent), mark(s.Correct, 0),
				mark(g.Detect, g.Silent), mark(g.Correct, 0))
		}
		t.Render(os.Stdout)
		fmt.Println("  (* = sometimes: silent escapes observed)")
		fmt.Println()
	}
	if *escape || *all {
		t := report.NewTable("MAC-escape exposure: iterative vs eager correction (6-bit MAC so escapes are observable; Section V-C/VII-E)",
			"policy", "trials", "faulty MAC checks", "escapes", "escape rate")
		for _, policy := range []ecc.CorrectionPolicy{ecc.Iterative, ecc.History, ecc.Eager} {
			m, err := experiments.MeasureEscapes(policy, 6, 20_000, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sgrel:", err)
				os.Exit(1)
			}
			t.AddRowStrings(policy.String(), fmt.Sprint(m.Trials), fmt.Sprint(m.FaultyMACChecks),
				fmt.Sprint(m.Escapes), fmt.Sprintf("%.5f", m.Rate()))
		}
		t.Render(os.Stdout)
		fmt.Println()
	}
}

// interrupted lets a SIGINT print the partial results already gathered;
// any other experiment error is fatal.
func interrupted(err error) {
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		fmt.Println("[interrupted — printing partial results]")
	default:
		fmt.Fprintln(os.Stderr, "sgrel:", err)
		os.Exit(1)
	}
}

// adaptiveSummary prints each adaptive run's stopping point under its
// table: how many 4096-module blocks ran and the achieved CI width.
func adaptiveSummary(rs []faultsim.Result) {
	for _, r := range rs {
		if r.Adaptive {
			fmt.Printf("  %s: stopped after %d blocks (%d modules), Wilson 95%% half-width ±%.2e\n",
				r.Scheme, r.BlocksRun, r.Modules, r.CIHalfWidth)
		}
	}
}

func probSeries(r faultsim.Result) string {
	s := ""
	for i, p := range r.ProbabilityByYear() {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.5f", p)
	}
	return s
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mark(ok bool, silent int) string {
	if ok {
		return "yes"
	}
	if silent > 0 {
		return "*"
	}
	return "no"
}
