package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run prints; each workload
// defines its unit of work and its operation (README.md). The operation
// tail did not repeat within a tenth between runs, so it is a per-layer
// metric.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
}

// Fault classes of the codec stream and the six codecs, by metric id.
var (
	codecClasses = []string{"clean", "bit", "pin", "chip", "rowhammer", "permanent"}
	codecIDs     = []string{"secded", "sg_secded", "chipkill", "sg_chipkill", "sgx", "synergy"}
	// macCodecIDs are the codecs that verify a MAC on reads.
	macCodecIDs = []string{"sg_secded", "sg_chipkill", "sgx", "synergy"}
	// cpuBuckets attribute CPU-profile samples by the leaf frame's
	// package; stdlib is every non-runtime standard package.
	cpuBuckets = []string{
		"memctrl", "cpu", "cache", "workload", "sim", "dram", "synth", "payload",
		"rowhammer", "bloom", "ecc", "mac", "qarma", "bits", "faultsim", "faultmodel",
		"resultcache", "jobs", "fleet", "telemetry", "perfbench", "runtime", "stdlib", "other",
	}
	evaluatorIDs = []string{"secded", "sg_secded", "sg_secded_noparity", "chipkill", "sg_chipkill"}
	perfSchemes  = []string{"baseline", "safeguard", "sgx", "synergy"}
)

// perLayer lists every metric a traced run prints. A layer the workload
// does not exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{b + ".cpu_share", "frac"})
	}
	defs = append(defs,
		metricDef{"memctrl.read_queue_depth_mean", "count"},
		metricDef{"memctrl.row_hit_frac", "frac"},
		metricDef{"memctrl.write_frac", "frac"},
		metricDef{"cache.llc_hit_frac", "frac"},
		metricDef{"runtime.allocs_per_kinstr", "count"},
		metricDef{"runtime.gc_cpu_share", "frac"},
		metricDef{"sim.host_ns_per_cycle", "ns"},
	)
	for _, s := range perfSchemes {
		defs = append(defs, metricDef{"sim.setup_ms." + s, "ms"}, metricDef{"sim.run_ms." + s, "ms"})
	}
	defs = append(defs,
		metricDef{"synth.evals", "count"},
		metricDef{"synth.cells_defeated", "count"},
		metricDef{"payload.ns_per_act", "ns"},
		metricDef{"mac.ns_per_line", "ns"},
		metricDef{"ecc.mac_useful_frac", "frac"},
	)
	for _, c := range codecIDs {
		for _, cl := range codecClasses {
			defs = append(defs, metricDef{"ecc.decode_us." + c + "." + cl, "us"})
		}
	}
	for _, c := range macCodecIDs {
		for _, cl := range codecClasses {
			defs = append(defs, metricDef{"ecc.mac_checks_per_line." + c + "." + cl, "count"})
		}
	}
	for _, e := range evaluatorIDs {
		defs = append(defs, metricDef{"faultsim.modules_per_s." + e, "1/s"})
	}
	defs = append(defs,
		metricDef{"resultcache.hash_us", "us"},
		metricDef{"resultcache.get_us", "us"},
		metricDef{"resultcache.encode_us", "us"},
		metricDef{"jobs.queue_wait_ms", "ms"},
		metricDef{"fleet.lease_wait_ms", "ms"},
		metricDef{"jobs.retries", "count"},
		metricDef{"jobs.rejected_429", "count"},
		metricDef{"fleet.rejected_completions", "count"},
		// The workload-specific rates and latencies the end-to-end
		// metrics fold into work_per_s / op_*_ms, under their own names.
		metricDef{"sim_minstr_per_s", "1/s"},
		metricDef{"synth_evals_per_s", "1/s"},
		metricDef{"codec_lines_per_s", "1/s"},
		metricDef{"jobs_per_s", "1/s"},
		metricDef{"miss_p50_ms", "ms"},
		metricDef{"miss_tail_ms", "ms"},
		metricDef{"hit_p50_ms", "ms"},
		metricDef{"hit_tail_ms", "ms"},
		metricDef{"op_tail_ms", "ms"},
		metricDef{"trace.overhead_frac", "frac"},
		metricDef{"trace.spans", "count"},
	)
	return defs
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is the state of one benchmark invocation shared by the workloads.
type run struct {
	opt  options
	log  io.Writer
	refs *reference
	// tr records spans and profiles; nil outside the traced window.
	tr *tracer

	attempted, failed atomic.Int64

	mu    sync.Mutex
	fresh map[string]string // digests this run produced, by key
	e2e   map[string]float64
	layer map[string]float64
}

func newRun(opt options, refs *reference, log io.Writer) *run {
	return &run{
		opt: opt, log: log, refs: refs,
		fresh: make(map[string]string),
		e2e:   make(map[string]float64),
		layer: make(map[string]float64),
	}
}

// op counts one attempted operation and, when !ok, one failure.
func (r *run) op(ok bool) {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
	}
}

// failf counts one failed operation and logs why.
func (r *run) failf(format string, args ...any) {
	r.op(false)
	fmt.Fprintf(r.log, "perfbench: FAIL: "+format+"\n", args...)
}

func (r *run) setE2E(name string, v float64) {
	r.mu.Lock()
	r.e2e[name] = v
	r.mu.Unlock()
}

func (r *run) setLayer(name string, v float64) {
	r.mu.Lock()
	r.layer[name] = v
	r.mu.Unlock()
}

// checkDigest compares an output digest with the seed's reference. A key
// without a committed reference is compared with its first digest in
// this run instead, which catches nondeterminism. It reports whether the
// digest matched.
func (r *run) checkDigest(key, digest string) bool {
	if r.opt.tiny {
		key = "tiny/" + key
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	want, ok := r.refs.Digests[r.opt.workload][key]
	if !ok {
		want, ok = r.fresh[key]
	}
	if _, seen := r.fresh[key]; !seen {
		r.fresh[key] = digest
	}
	if ok && want != digest {
		fmt.Fprintf(r.log, "perfbench: FAIL: %s digest %s, reference %s\n", key, digest, want)
		return false
	}
	return true
}

// timeSetup runs build reps times and records the median wall time as
// setup_s. build receives whether this is the final repetition, whose
// products the workload keeps. A cheaper set-up takes more repetitions,
// so that its median holds steady from run to run.
func (r *run) timeSetup(reps int, build func(last bool) error) error {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		// Each repetition starts from a collected heap, so garbage from
		// the previous one is not charged to it.
		runtime.GC()
		start := time.Now()
		if err := build(i == reps-1); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.setE2E("setup_s", median(times))
	return nil
}

// result assembles the printed line.
func (r *run) result(wl benchWorkload) *result {
	defs, vals := endToEnd, r.e2e
	if r.opt.trace {
		defs, vals = perLayer, r.layer
	}
	res := &result{
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	positive := true
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		if !r.opt.trace && v <= 0 {
			fmt.Fprintf(r.log, "perfbench: FAIL: %s measured %g on %s\n", d.name, v, wl.name)
			positive = false
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
		fmt.Fprintf(r.log, "perfbench: FAIL: %v\n", errNoWork)
	}
	res.Correct = res.Failed == 0 && positive
	return res
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest of p99, p95 and p90 that has at least ten samples
// above it; with fewer than 101 samples it is the maximum. The label
// names which one was taken, for the log.
func tail(xs []float64) (float64, string) {
	if len(xs) == 0 {
		return 0, "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range []float64{0.99, 0.95, 0.90} {
		idx := int(math.Ceil(p*float64(n))) - 1
		if n-1-idx >= 10 {
			return s[idx], fmt.Sprintf("p%g of %d", p*100, n)
		}
	}
	return s[n-1], fmt.Sprintf("max of %d", n)
}

// setLatencies records op_p50_ms (end to end) and op_tail_ms (per layer)
// from per-operation latencies in milliseconds. Traced runs pass the
// latencies of their untraced half.
func (r *run) setLatencies(what string, ms []float64) {
	p50 := median(ms)
	t, label := tail(ms)
	r.setE2E("op_p50_ms", p50)
	r.setLayer("op_tail_ms", t)
	fmt.Fprintf(r.log, "perfbench: %s latency p50 %.3f ms, tail %.3f ms (%s)\n", what, p50, t, label)
}

// fingerprint identifies the machine a result came from: timings from
// different fingerprints are not comparable.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
}

func machineFingerprint() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
	}
}

func (f fingerprint) sameMachine(g fingerprint) bool { return f == g }

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d %s/%s", f.CPU, f.NProc, f.GOMAXPROCS, f.GoVersion, f.GOARCH)
}

// cpuModel reads the CPU model name from /proc/cpuinfo where it exists.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// reference holds the committed output digests of one seed, by
// workload and key.
type reference struct {
	Seed        uint64                       `json:"seed"`
	Fingerprint *fingerprint                 `json:"fingerprint,omitempty"`
	Digests     map[string]map[string]string `json:"digests"`
}

func refPath(dir string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ref-%d.json", seed))
}

// loadReference reads the seed's reference; a seed without one gets an
// empty reference.
func loadReference(dir string, seed uint64) (*reference, error) {
	ref := &reference{Seed: seed, Digests: map[string]map[string]string{}}
	b, err := os.ReadFile(refPath(dir, seed))
	if os.IsNotExist(err) {
		return ref, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", refPath(dir, seed), err)
	}
	if ref.Digests == nil {
		ref.Digests = map[string]map[string]string{}
	}
	return ref, nil
}

// saveReference replaces the workload's digests in the seed's reference
// file, keeping the other workloads' digests.
func saveReference(dir string, seed uint64, fp fingerprint, workload string, fresh map[string]string) error {
	ref, err := loadReference(dir, seed)
	if err != nil {
		return err
	}
	ref.Fingerprint = &fp
	ref.Digests[workload] = fresh
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(refPath(dir, seed), append(b, '\n'), 0o644)
}
