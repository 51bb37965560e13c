// Command bench2json converts `go test -bench` output into a JSON report
// and diffs two such reports.
//
// In pipe mode it reads the benchmark log on stdin, echoes it unchanged to
// stdout (so it sits transparently in a pipe), and writes the parsed
// results to -o:
//
//	go test -bench=. -benchmem -run '^$' . | bench2json -o BENCH_4.json
//
// Each benchmark line becomes one record keyed by benchmark name with the
// iteration count and every unit-tagged measurement (ns/op, B/op,
// allocs/op, and any b.ReportMetric custom units). Records are sorted by
// name so the report is deterministic regardless of run order.
//
// In diff mode it compares a baseline report against a current one and
// exits non-zero when any shared benchmark's -metric grew by more than
// -regress (default 10%), or when a baseline benchmark is missing from
// the current run (benchmarks new in the current run are not judged) —
// the CI hook that keeps yesterday's BENCH_<n> artifacts honest:
//
//	bench2json -diff BENCH_3.json BENCH_4.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Record is one parsed benchmark result.
type Record struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the file layout: a schema marker plus the sorted records.
type Report struct {
	Schema     string   `json:"schema"`
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	Package    string   `json:"pkg,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

// reportSchema marks the file layout bench2json writes and diffs.
const reportSchema = "safeguard-bench/1"

// parseLine parses one "BenchmarkName-8  N  123 ns/op  ..." line; ok is
// false for non-benchmark output.
func parseLine(line string) (Record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Record{}, false
	}
	name := fields[0]
	// Trim the -GOMAXPROCS suffix: it is machine configuration, not identity.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	rec := Record{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	// The rest is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, false
		}
		rec.Metrics[fields[i+1]] = v
	}
	return rec, true
}

// benchRegression is one diff finding: a benchmark whose metric grew past
// the threshold between the baseline and the current report.
type benchRegression struct {
	Name     string
	Old, New float64
}

func (r benchRegression) delta() float64 {
	if r.Old == 0 {
		return 1
	}
	return (r.New - r.Old) / r.Old
}

func (r benchRegression) String() string {
	return fmt.Sprintf("%s: %g -> %g (%+.1f%%)", r.Name, r.Old, r.New, r.delta()*100)
}

// diffReports returns every benchmark present in both reports whose
// metric grew by more than threshold, plus the sorted names of baseline
// benchmarks absent from the current run — a vanished benchmark can hide
// any regression, so it fails the diff too. Benchmarks new in the current
// run, and benchmarks missing the metric on either side, are skipped.
func diffReports(baseline, current *Report, metric string, threshold float64) (regs []benchRegression, missing []string) {
	cur := make(map[string]Record, len(current.Benchmarks))
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	for _, base := range baseline.Benchmarks {
		b, ok := cur[base.Name]
		if !ok {
			missing = append(missing, base.Name)
			continue
		}
		ov, okOld := base.Metrics[metric]
		nv, okNew := b.Metrics[metric]
		if !okOld || !okNew || nv <= ov {
			continue
		}
		if ov == 0 || (nv-ov)/ov > threshold {
			regs = append(regs, benchRegression{Name: b.Name, Old: ov, New: nv})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Name < regs[j].Name })
	sort.Strings(missing)
	return regs, missing
}

// readReport loads and validates a bench2json artifact.
func readReport(path string) (*Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s: unsupported bench report schema %q (this build reads %q)",
			path, rep.Schema, reportSchema)
	}
	return &rep, nil
}

func runDiff(args []string, metric string, threshold float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench2json: -diff takes exactly two report paths: old.json new.json")
		return 2
	}
	baseline, err := readReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		return 2
	}
	current, err := readReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		return 2
	}
	regs, missing := diffReports(baseline, current, metric, threshold)
	if len(regs) == 0 && len(missing) == 0 {
		fmt.Printf("bench diff %s vs %s: no %s grew more than %.0f%%\n",
			args[0], args[1], metric, threshold*100)
		return 0
	}
	if len(regs) > 0 {
		fmt.Printf("bench diff %s vs %s: %d regression(s) in %s above %.0f%%:\n",
			args[0], args[1], len(regs), metric, threshold*100)
		for _, r := range regs {
			fmt.Printf("  %s\n", r)
		}
	}
	if len(missing) > 0 {
		fmt.Printf("bench diff %s vs %s: %d baseline benchmark(s) missing from the current run:\n",
			args[0], args[1], len(missing))
		for _, name := range missing {
			fmt.Printf("  %s\n", name)
		}
	}
	return 1
}

func runPipe(out string) int {
	rep := Report{Schema: reportSchema}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(w, line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Package = strings.TrimPrefix(line, "pkg: ")
		default:
			if rec, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, rec)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		return 1
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		return 1
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "bench2json: wrote %d benchmarks to %s\n", len(rep.Benchmarks), out)
	return 0
}

func main() {
	out := flag.String("o", "BENCH.json", "output JSON path (pipe mode)")
	diff := flag.Bool("diff", false, "diff mode: compare two reports (old.json new.json) and exit non-zero on regression")
	metric := flag.String("metric", "ns/op", "metric compared by -diff")
	regress := flag.Float64("regress", 0.10, "relative growth that counts as a regression for -diff")
	flag.Parse()
	if *diff {
		os.Exit(runDiff(flag.Args(), *metric, *regress))
	}
	os.Exit(runPipe(*out))
}
