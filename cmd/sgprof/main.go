// Command sgprof is the deterministic profiler over the repository's
// observability layer: where did every cycle go, and how did a run
// unfold over time.
//
//	sgprof -run -workload mcf                 profile a workload's CPI stacks
//	sgprof -run -schemes Baseline,SafeGuard   pick the schemes to stack
//	sgprof -read run.trace                    analyze a versioned -trace file
//	sgprof -in report.json                    reload a saved report
//	sgprof ... -o report.json                 save the report (JSON artifact)
//	sgprof ... -report json                   print JSON instead of tables
//	sgprof ... -diff baseline.json            flag component regressions
//
// -snapshot DIR keeps a warm-start pool of post-warm-up checkpoints for
// -run; -resume restores from it (stacks stay bit-identical).
//
// -run, -read and -in are mutually exclusive report sources. Reports are
// byte-identical across repeated runs and worker counts: CPI stacks are
// integer arrays merged commutatively, and nothing here reads a clock.
// With -diff, any component whose cycle count grew more than -regress
// (default 10%) exits non-zero — the CI hook for perf PRs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"safeguard/internal/attrib"
	"safeguard/internal/cliflags"
	"safeguard/internal/dram"
	"safeguard/internal/experiments"
	"safeguard/internal/memctrl"
	"safeguard/internal/resultcache"
	"safeguard/internal/sim"
	"safeguard/internal/telemetry"
)

func main() {
	var (
		run     = flag.Bool("run", false, "drive attribution-enabled simulations and report their CPI stacks")
		read    = flag.String("read", "", "analyze a versioned trace file (written by any cmd's -trace)")
		in      = flag.String("in", "", "reload a saved sgprof report (JSON)")
		out     = flag.String("o", "", "write the report as JSON to this file")
		format  = flag.String("report", "text", `stdout format: "text" or "json"`)
		diff    = flag.String("diff", "", "baseline report to diff against; regressions exit non-zero")
		regress = flag.Float64("regress", 0.10, "relative growth that counts as a regression for -diff")
		window  = flag.Int64("window", 0, "trace analysis window in cycles (default 10000)")

		wl         = flag.String("workload", "mcf", "workload to profile with -run")
		schemes    = flag.String("schemes", "", "comma-separated schemes for -run (default Baseline,SafeGuard)")
		seeds      = flag.Int("seeds", 1, "seeds summed per scheme with -run")
		workers    = flag.Int("workers", 0, "worker goroutines for -run (0 = GOMAXPROCS; result is identical for any value)")
		instr      = flag.Int64("instr", 0, "measured instructions per core (override)")
		warmup     = flag.Int64("warmup", 0, "warm-up instructions per core (override)")
		macLat     = flag.Int64("mac", 0, "MAC-check latency in CPU cycles (0 = Table II default)")
		decode     = flag.Int64("decode", 0, "on-critical-path ECC-decode latency in CPU cycles")
		mitigation = flag.String("mitigation", "", "in-controller Row-Hammer mitigation attached to -run")
		threshold  = flag.Int("threshold", 0, "RH-Threshold sizing the mitigation (0 = Table I default)")
		engine     = flag.String("engine", "", "simulation loop for -run: event (default) or cycle")
	)
	tf := cliflags.Telemetry(flag.CommandLine)
	sf := cliflags.Snapshot()
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := cliflags.Exclusive(false, map[string]bool{
		"run": *run, "read": *read != "", "in": *in != "",
	}); err != nil {
		cliflags.Fail(err)
	}
	switch *format {
	case "text", "json":
	default:
		cliflags.Fail(fmt.Errorf(`-report must be "text" or "json" (got %q)`, *format))
	}
	if _, err := sim.ParseEngine(*engine); err != nil {
		cliflags.Fail(err)
	}
	if err := sf.Validate(); err != nil {
		cliflags.Fail(err)
	}
	if err := tf.Activate(); err != nil {
		cliflags.Fail(err)
	}
	defer tf.MustFinish()

	var rep *attrib.Report
	switch {
	case *run:
		cfg := experiments.ProfileConfig{
			Workload:      *wl,
			Seeds:         seedList(*seeds),
			Parallelism:   *workers,
			InstrPerCore:  *instr,
			WarmupInstr:   *warmup,
			MACLatencyCPU: *macLat,
			ECCDecodeCPU:  *decode,
			Mitigation:    *mitigation,
			RHThreshold:   *threshold,
			Telemetry:     tf.Registry,
			Trace:         tf.Tracer,
			Engine:        *engine,
		}
		if sf.Enabled() {
			store, err := resultcache.New(resultcache.Options{Dir: sf.Dir, Telemetry: tf.Registry})
			if err != nil {
				fatal(err)
			}
			pool := resultcache.NewWarmPool(store)
			if sf.Resume {
				cfg.WarmPool = pool
			} else {
				cfg.WarmPool = pool.DepositOnly()
			}
		}
		list, err := cliflags.ParseSchemeList(*schemes)
		if err != nil {
			cliflags.Fail(err)
		}
		cfg.Schemes = list
		if *mitigation != "" {
			effTh := *threshold
			if effTh == 0 {
				effTh = 4800
			}
			if _, err := memctrl.NewMitigationPlugin(*mitigation, effTh, 1); err != nil {
				cliflags.Fail(err)
			}
		}
		res, err := experiments.Profile(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		rep = res.Report()
		stampMeta(rep, tf)
	case *read != "":
		f, err := os.Open(*read)
		if err != nil {
			fatal(err)
		}
		trace, err := telemetry.ReadTraceFile(f)
		_ = f.Close()
		if err != nil {
			fatal(err)
		}
		a := attrib.Analyze(trace.Events, attrib.AnalyzerConfig{WindowCycles: *window})
		if a.Dropped == 0 {
			a.Dropped = trace.Dropped
		}
		rep = attrib.NewReport()
		for k, v := range trace.Meta {
			rep.Meta[k] = v
		}
		rep.Trace = &a
		rep.Meta["source"] = *read
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		rep, err = attrib.ReadReport(f)
		_ = f.Close()
		if err != nil {
			fatal(err)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			_ = f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	switch *format {
	case "json":
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	case "text":
		rep.WriteText(os.Stdout)
	}

	if *diff != "" {
		f, err := os.Open(*diff)
		if err != nil {
			fatal(err)
		}
		base, err := attrib.ReadReport(f)
		_ = f.Close()
		if err != nil {
			fatal(err)
		}
		regs := attrib.Diff(base, rep, *regress)
		if len(regs) == 0 {
			fmt.Printf("diff vs %s: no component grew more than %.0f%%\n", *diff, *regress*100)
			return
		}
		fmt.Printf("diff vs %s: %d regression(s) above %.0f%%:\n", *diff, len(regs), *regress*100)
		for _, g := range regs {
			fmt.Printf("  %s\n", g)
		}
		os.Exit(1)
	}
}

// stampMeta annotates the report (and any -trace file) with what this
// tool knows about the run.
func stampMeta(rep *attrib.Report, tf *cliflags.TelemetryFlags) {
	g := dram.Table2Geometry
	rep.Meta["tool"] = "sgprof"
	rep.Meta["geometry"] = fmt.Sprintf("%drx%db", g.Ranks, g.Banks)
	labels := make([]string, 0, len(rep.Stacks))
	for _, st := range rep.Stacks {
		labels = append(labels, st.Label)
	}
	tf.SetTraceMeta("tool", "sgprof")
	tf.SetTraceMeta("geometry", rep.Meta["geometry"])
	tf.SetTraceMeta("schemes", strings.Join(labels, ","))
	if wl, ok := rep.Meta["workload"]; ok {
		tf.SetTraceMeta("workload", wl)
	}
}

func seedList(n int) []uint64 {
	if n <= 0 {
		n = 1
	}
	out := make([]uint64, 0, n)
	for s := 1; s <= n; s++ {
		out = append(out, uint64(s))
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sgprof:", err)
	os.Exit(1)
}
