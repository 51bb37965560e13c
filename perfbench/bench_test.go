package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// testLog sends a run's log lines to the test log.
type testLog struct{ t *testing.T }

func (w testLog) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: defaultSeed, seconds: 0.5, trace: trace, tiny: true,
		root: "..", refDir: filepath.Join("..", "perfbench", "testdata"), outDir: t.TempDir(),
	}
}

// TestEveryWorkloadTiny runs every workload of BENCHMARK.json on tiny
// inputs, untraced and traced, and checks that each run's outputs pass
// their checks and that it prints every metric BENCHMARK.json names,
// with its unit.
func TestEveryWorkloadTiny(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := runBenchmark(context.Background(), tinyOptions(t, w.Name, trace), testLog{t})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %g", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedReferenceFails records a reference, checks that a rerun
// matches it, then corrupts one digest and checks that the rerun counts
// failures.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, workload := range []string{"perf-cacheres", "security", "reliability-served"} {
		opt := tinyOptions(t, workload, false)
		opt.refDir = t.TempDir()
		opt.writeRef = true
		if _, err := runBenchmark(context.Background(), opt, testLog{t}); err != nil {
			t.Fatal(err)
		}
		opt.writeRef = false
		res, err := runBenchmark(context.Background(), opt, testLog{t})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: rerun against its own reference: correct=%v failed=%d", workload, res.Correct, res.Failed)
		}
		path := refPath(opt.refDir, opt.seed)
		ref, err := loadReference(opt.refDir, opt.seed)
		if err != nil {
			t.Fatal(err)
		}
		digests := ref.Digests[workload]
		if len(digests) == 0 {
			t.Fatalf("%s: reference recorded no digests", workload)
		}
		for k, v := range digests {
			digests[k] = strings.Repeat("0", len(v))
		}
		b, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err = runBenchmark(context.Background(), opt, testLog{t})
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reference not detected: correct=%v failed=%d of %d",
				workload, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 200; i++ {
		xs = append(xs, float64(i))
	}
	if v, label := tail(xs); v != 190 || label != "p95 of 200" {
		t.Errorf("tail of 1..200 = %g (%s), want 190 (p95 of 200)", v, label)
	}
	if v, _ := tail(xs[:20]); v != 20 {
		t.Errorf("tail of 20 samples = %g, want the maximum 20", v)
	}
}

func TestPackageBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"safeguard/internal/memctrl.(*Controller).schedule": "memctrl",
		"safeguard/internal/fleet/chaos.Run":                "fleet",
		"main.(*run).codecBurst":                            "perfbench",
		"main.(*servedLoad).measure.func1":                  "perfbench",
		"runtime.mallocgc":                                  "runtime",
		"internal/runtime/maps.(*Map).getWithKey":           "runtime",
		"crypto/sha256.block":                               "stdlib",
		"net/http.(*conn).serve":                            "stdlib",
	} {
		if got := packageBucket(fn); got != want {
			t.Errorf("packageBucket(%q) = %q, want %q", fn, got, want)
		}
	}
	// A frame of this package as the running binary names it.
	fn := runtime.FuncForPC(reflect.ValueOf(packageBucket).Pointer()).Name()
	if got := packageBucket(fn); got != "perfbench" {
		t.Errorf("packageBucket(%q) = %q, want perfbench", fn, got)
	}
}
