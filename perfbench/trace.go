package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one job share Job.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Job    string `json:"job,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory for the traced window, plus the CPU
// profile and runtime/metrics samples taken across it.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	prof     bytes.Buffer
	rtBefore []metrics.Sample
	rtAfter  []metrics.Sample
	shares   map[string]float64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
}

func readRuntimeMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// startTracer begins the traced window: spans are recorded from here and
// the CPU profiler runs until stop.
func startTracer() (*tracer, error) {
	t := &tracer{t0: time.Now(), rtBefore: readRuntimeMetrics()}
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return t, nil
}

// stop ends the traced window and attributes the profile's samples.
func (t *tracer) stop() error {
	pprof.StopCPUProfile()
	t.rtAfter = readRuntimeMetrics()
	shares, err := leafPackageShares(t.prof.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	t.shares = shares
	return nil
}

// begin allocates a span id so children can name their parent before
// the parent ends. A nil tracer records nothing.
func (t *tracer) begin() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// end records span id over [start, now].
func (t *tracer) end(id, parent uint64, job, name string, start time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: time.Since(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call records fn as one span.
func (t *tracer) call(parent uint64, job, name string, fn func()) {
	id, start := t.begin(), time.Now()
	fn()
	t.end(id, parent, job, name, start)
}

// meanMS is the mean duration of the spans called name, in ms.
func (t *tracer) meanMS(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

// rtDelta is the change of runtime metric i over the traced window.
func (t *tracer) rtDelta(i int) float64 {
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return val(t.rtAfter[i]) - val(t.rtBefore[i])
}

// recordLayers sets the per-layer metrics every traced run shares: CPU
// shares by package, GC CPU share, and the span count.
func (t *tracer) recordLayers(r *run) {
	for _, b := range cpuBuckets {
		r.setLayer(b+".cpu_share", t.shares[b])
	}
	if total := t.rtDelta(1); total > 0 {
		r.setLayer("runtime.gc_cpu_share", t.rtDelta(0)/total)
	}
	t.mu.Lock()
	n := len(t.spans)
	t.mu.Unlock()
	r.setLayer("trace.spans", float64(n))
}

// allocs is the number of heap objects allocated in the traced window.
func (t *tracer) allocs() float64 { return t.rtDelta(2) }

// write saves the spans, each name's self time (its duration minus the
// part its children cover) and the CPU shares.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	self := selfTimes(spans)
	out := struct {
		Spans       []span             `json:"spans"`
		SelfMS      map[string]float64 `json:"self_ms"`
		CPUShares   map[string]float64 `json:"cpu_shares"`
		ProfileSize int                `json:"profile_bytes"`
	}{spans, self, t.shares, t.prof.Len()}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the union of
// its children's intervals.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		covered, cur := int64(0), s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

// leafPackageShares parses a gzipped pprof CPU profile and returns the
// share of CPU time whose leaf frame lies in each cpuBuckets package.
func leafPackageShares(gz []byte) (map[string]float64, error) {
	shares := make(map[string]float64)
	if len(gz) == 0 {
		return shares, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		name := ""
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			name = p.funcNames[fns[0]]
		}
		shares[packageBucket(name)] += v
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// packageBucket maps a fully qualified function name to its cpuBuckets
// entry.
func packageBucket(fn string) string {
	pkg := fn
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "safeguard/internal/"):
		name := strings.TrimPrefix(pkg, "safeguard/internal/")
		name, _, _ = strings.Cut(name, "/")
		for _, b := range cpuBuckets {
			if b == name {
				return b
			}
		}
		return "other"
	case pkg == "main" || pkg == "safeguard/perfbench":
		// The benchmark binary's own frames are main.*; under go test
		// they carry the package's import path.
		return "perfbench"
	case strings.HasPrefix(pkg, "safeguard"):
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "":
		return "other"
	}
	return "stdlib"
}

// profile holds what leafPackageShares needs from a pprof message.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, leaf first
	funcNames map[uint64]string
}

type sample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("malformed profile")

// parseProfile decodes the fields of the pprof Profile message the CPU
// attribution needs: samples (field 2), locations (4), functions (5) and
// the string table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]uint64{}
	err := walkFields(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					for _, x := range appendVarints(nil, w, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := walkFields(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcStr {
		if si < uint64(len(strs)) {
			p.funcNames[id] = strs[si]
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := readVarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// walkFields calls fn for each field of a protobuf message: varints
// arrive in v, length-delimited fields in data.
func walkFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := readVarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = readVarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := readVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func readVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
