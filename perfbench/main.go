// Command perfbench is the repository benchmark: one process that runs a
// named workload against the simulator, attack/codec and serving layers
// through their public functions, checks every output, and prints one
// JSON result line.
//
//	perfbench --workload perf-membound --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run (spans
// around each layer call, a CPU profile, runtime/metrics). README.md
// explains why each workload exists and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every input so a full run takes about a second. Only
	// the self-test sets it; tiny inputs have their own reference keys.
	tiny bool
	// root is the repository checkout (testdata/ is read from it).
	root string
	// refDir holds the committed reference digests.
	refDir string
	// outDir receives span traces and run records.
	outDir string
	// writeRef records this run's digests into refDir instead of only
	// checking them.
	writeRef bool
}

// defaultSeed is the seed whose references are committed together with
// the held-out seed; at this seed the security workload's synthesis
// sweep is exactly the nightly baseline configuration.
const defaultSeed = 7

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		opt     options
		trace   int
		compare bool
	)
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&opt.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&opt.seconds, "seconds", 20, "measurement window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&opt.root, "root", ".", "repository checkout")
	fs.StringVar(&opt.refDir, "ref-dir", "", "reference digest directory (default <root>/perfbench/testdata)")
	fs.StringVar(&opt.outDir, "out-dir", "", "trace and run-record directory (default <root>/.bench_build)")
	fs.BoolVar(&opt.writeRef, "write-ref", false, "record this run's digests as the seed's reference")
	fs.BoolVar(&compare, "compare", false, "compare two run records given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		return compareRecords(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	opt.trace = trace == 1
	if opt.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if opt.refDir == "" {
		opt.refDir = filepath.Join(opt.root, "perfbench", "testdata")
	}
	if opt.outDir == "" {
		opt.outDir = filepath.Join(opt.root, ".bench_build")
	}
	res, err := runBenchmark(context.Background(), opt, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runBenchmark runs one workload and returns the printed result. The run
// record (result plus machine fingerprint) and, when traced, the span
// trace are written under opt.outDir.
func runBenchmark(ctx context.Context, opt options, log io.Writer) (*result, error) {
	wl, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (valid: %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	fp := machineFingerprint()
	fmt.Fprintf(log, "perfbench: %s seed=%d seconds=%g trace=%v machine: %s\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, fp)
	refs, err := loadReference(opt.refDir, opt.seed)
	if err != nil {
		return nil, err
	}
	if refs.Fingerprint != nil && !refs.Fingerprint.sameMachine(fp) {
		fmt.Fprintf(log, "perfbench: note: reference digests for seed %d were recorded on another machine (%s)\n",
			opt.seed, refs.Fingerprint)
	}
	r := newRun(opt, refs, log)
	if err := wl.run(ctx, r); err != nil {
		return nil, err
	}
	res := r.result(wl)
	if opt.writeRef {
		if err := saveReference(opt.refDir, opt.seed, fp, opt.workload, r.fresh); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", opt.workload, opt.seed, boolInt(opt.trace))
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(opt.outDir, "traces", base+".json")); err != nil {
			return nil, err
		}
	}
	if err := writeRecord(filepath.Join(opt.outDir, "runs", base+".json"), record{
		Workload: opt.workload, Seed: opt.seed, Trace: opt.trace, Fingerprint: fp, Result: *res,
	}); err != nil {
		return nil, err
	}
	return res, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// benchWorkload is one benchmark input mix; README.md says why each
// exists. run measures it and fills r.
type benchWorkload struct {
	name string
	run  func(ctx context.Context, r *run) error
}

var workloads = map[string]benchWorkload{}

func register(w benchWorkload) { workloads[w.name] = w }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// record is one run as written to the run-record directory.
type record struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	Result      result      `json:"result"`
}

func writeRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareRecords prints each metric of two run records side by side and
// flags records made on different machines: their timings are not
// comparable. It exits 3 on a fingerprint mismatch.
func compareRecords(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "perfbench: --compare needs two run records")
		return 2
	}
	var recs [2]record
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", p, err)
			return 1
		}
	}
	names := make([]string, 0, len(recs[0].Result.Metrics))
	for n := range recs[0].Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := recs[0].Result.Metrics[n]
		b, ok := recs[1].Result.Metrics[n]
		if !ok {
			fmt.Fprintf(stdout, "%-40s %14.6g %s  (missing in second record)\n", n, a.Value, a.Unit)
			continue
		}
		ratio := 0.0
		if a.Value != 0 {
			ratio = b.Value / a.Value
		}
		fmt.Fprintf(stdout, "%-40s %14.6g %14.6g %s  x%.3f\n", n, a.Value, b.Value, a.Unit, ratio)
	}
	if !recs[0].Fingerprint.sameMachine(recs[1].Fingerprint) {
		fmt.Fprintf(stdout, "FINGERPRINT MISMATCH: %s vs %s; timings are not comparable\n",
			recs[0].Fingerprint, recs[1].Fingerprint)
		return 3
	}
	return 0
}

var errNoWork = errors.New("no operation completed inside the measurement window")
