package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	t.Parallel()
	rec, ok := parseLine("BenchmarkReadHot-8   1000000   123.4 ns/op   16 B/op   2 allocs/op")
	if !ok {
		t.Fatal("parseLine rejected a benchmark line")
	}
	if rec.Name != "BenchmarkReadHot" || rec.Iterations != 1000000 {
		t.Fatalf("rec = %+v", rec)
	}
	if rec.Metrics["ns/op"] != 123.4 || rec.Metrics["allocs/op"] != 2 {
		t.Fatalf("metrics = %v", rec.Metrics)
	}
	for _, line := range []string{"", "ok  	safeguard	1.2s", "PASS", "Benchmark"} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}

func report(metrics map[string]map[string]float64) *Report {
	rep := &Report{Schema: reportSchema}
	for name, m := range metrics {
		rep.Benchmarks = append(rep.Benchmarks, Record{Name: name, Iterations: 1, Metrics: m})
	}
	return rep
}

func TestDiffReports(t *testing.T) {
	t.Parallel()
	base := report(map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 100, "allocs/op": 0},
		"BenchmarkB": {"ns/op": 200},
		"BenchmarkC": {"ns/op": 50},
		"BenchmarkE": {"allocs/op": 3},
		"BenchmarkF": {"ns/op": 10},
	})
	cur := report(map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 125, "allocs/op": 0}, // +25%: regression
		"BenchmarkB": {"ns/op": 210},                 // +5%: under threshold
		"BenchmarkC": {"ns/op": 40},                  // improvement
		"BenchmarkD": {"ns/op": 999},                 // no baseline: skipped
		"BenchmarkE": {},                             // metric vanished: skipped
		// BenchmarkF vanished from the run: reported missing
	})
	regs, missing := diffReports(base, cur, "ns/op", 0.10)
	if len(regs) != 1 || regs[0].Name != "BenchmarkA" || regs[0].Old != 100 || regs[0].New != 125 {
		t.Fatalf("regs = %v", regs)
	}
	if len(missing) != 1 || missing[0] != "BenchmarkF" {
		t.Fatalf("missing = %v, want [BenchmarkF]", missing)
	}
	if !strings.Contains(regs[0].String(), "+25.0%") {
		t.Fatalf("rendering = %q", regs[0].String())
	}
	// A zero baseline growing at all is always a regression.
	regs, _ = diffReports(
		report(map[string]map[string]float64{"BenchmarkZ": {"allocs/op": 0}}),
		report(map[string]map[string]float64{"BenchmarkZ": {"allocs/op": 1}}),
		"allocs/op", 0.10)
	if len(regs) != 1 || regs[0].delta() != 1 {
		t.Fatalf("zero-baseline regs = %v", regs)
	}
	// Self-diff is always clean.
	if regs, missing := diffReports(base, base, "ns/op", 0.10); len(regs) != 0 || len(missing) != 0 {
		t.Fatalf("self-diff = %v, missing %v", regs, missing)
	}
}

func writeReport(t *testing.T, dir, name string, rep *Report) string {
	t.Helper()
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDiffExitCodes(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	base := writeReport(t, dir, "old.json", report(map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 100},
	}))
	worse := writeReport(t, dir, "new.json", report(map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 150},
	}))
	if got := runDiff([]string{base, base}, "ns/op", 0.10); got != 0 {
		t.Fatalf("self-diff exit = %d, want 0", got)
	}
	if got := runDiff([]string{base, worse}, "ns/op", 0.10); got != 1 {
		t.Fatalf("regressed diff exit = %d, want 1", got)
	}
	// A benchmark that vanished fails the diff; one that is only new
	// in the current run does not.
	vanished := writeReport(t, dir, "vanished.json", report(map[string]map[string]float64{
		"BenchmarkB": {"ns/op": 100},
	}))
	if got := runDiff([]string{base, vanished}, "ns/op", 0.10); got != 1 {
		t.Fatalf("vanished-benchmark diff exit = %d, want 1", got)
	}
	grown := writeReport(t, dir, "grown.json", report(map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 100}, "BenchmarkB": {"ns/op": 100},
	}))
	if got := runDiff([]string{base, grown}, "ns/op", 0.10); got != 0 {
		t.Fatalf("new-benchmark diff exit = %d, want 0", got)
	}
	if got := runDiff([]string{base}, "ns/op", 0.10); got != 2 {
		t.Fatalf("one-arg diff exit = %d, want 2", got)
	}
	if got := runDiff([]string{base, filepath.Join(dir, "missing.json")}, "ns/op", 0.10); got != 2 {
		t.Fatalf("missing-file diff exit = %d, want 2", got)
	}
	bad := writeReport(t, dir, "bad.json", &Report{Schema: "other/9"})
	if got := runDiff([]string{base, bad}, "ns/op", 0.10); got != 2 {
		t.Fatalf("bad-schema diff exit = %d, want 2", got)
	}
}

func TestReadReportValidatesSchema(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(path); err == nil {
		t.Fatal("readReport accepted garbage")
	}
	good := writeReport(t, dir, "good.json", report(map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 1},
	}))
	rep, err := readReport(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("rep = %+v", rep)
	}
}
