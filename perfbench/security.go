package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"safeguard/internal/bits"
	"safeguard/internal/ecc"
	"safeguard/internal/mac"
	"safeguard/internal/payload"
	"safeguard/internal/resultcache"
	"safeguard/internal/rowhammer"
	"safeguard/internal/synth"
)

func init() {
	register(benchWorkload{
		name: "security",
		run:  securityWorkload,
	})
}

// synthSearchSeed fixes the attacker's search trajectory: every run
// spends the same search effort, while the benchmark seed draws the
// victim bank's vulnerable cells. At seed 7 the request is exactly the
// nightly baseline sweep (Makefile SYNTH_BASELINE_FLAGS), whose matrix
// must equal testdata/synth_baseline.json byte for byte.
const synthSearchSeed = 7

// securitySetupReps is how many times set-up is repeated for its median.
// One repetition takes tens of microseconds, so many are needed.
const securitySetupReps = 201

func synthRequest(seed uint64, tiny bool) *resultcache.Request {
	s := &resultcache.SynthRequest{
		Bank: rowhammer.Config{
			Rows: 1024, Threshold: 600, LinesPerRow: 8,
			VulnerableCellsPerRow: 32, FlipsPerCrossing: 4, Seed: seed,
		},
		Thresholds:  []int{600},
		Seed:        synthSearchSeed,
		Budget:      3000,
		Generations: 4,
		Population:  8,
	}
	if tiny {
		s.Bank.Rows = 256
		s.Thresholds = []int{300}
		s.Bank.Threshold = 300
		s.Mitigations = []string{"none", "para", "trr"}
		s.Budget, s.Generations, s.Population = 800, 2, 4
	}
	return &resultcache.Request{Kind: resultcache.KindSynth, Synth: s}
}

// securityWorkload runs one synthesis sweep, then decodes codec bursts
// for the rest of the window (at least a quarter of it). work_per_s is
// synthesis evaluations per second; an operation is one codec burst.
func securityWorkload(ctx context.Context, r *run) error {
	// The inputs (key bytes, burst lines, the baseline matrix) are the
	// benchmark's and are made before set-up is timed; set-up times only
	// the program's key schedule, codec construction and request hash.
	key, bursts := codecInputs(r.opt.seed, r.opt.tiny)
	var baseline []byte
	if r.opt.seed == synthSearchSeed && !r.opt.tiny {
		var err error
		baseline, err = os.ReadFile(filepath.Join(r.opt.root, "testdata", "synth_baseline.json"))
		if err != nil {
			return err
		}
	}
	var stream *codecStream
	err := r.timeSetup(securitySetupReps, func(last bool) error {
		s := newCodecStream(key, bursts)
		if _, err := synthRequest(r.opt.seed, r.opt.tiny).Hash(); err != nil {
			return err
		}
		if last {
			stream = s
		}
		return nil
	})
	if err != nil {
		return err
	}
	window := time.Duration(r.opt.seconds * float64(time.Second))
	minCodec := window / 4

	if !r.opt.trace {
		start := time.Now()
		evals, synthWall := r.synthSweep(ctx, baseline)
		r.setE2E("work_per_s", float64(evals)/synthWall.Seconds())
		codecTime := max(window-time.Since(start), minCodec)
		lat, lines, wall := r.codecBursts(stream, codecTime)
		r.setLatencies("codec burst", lat)
		fmt.Fprintf(r.log, "perfbench: synthesis %d evaluations in %.2fs; codec %.0f lines/s\n",
			evals, synthWall.Seconds(), float64(lines)/wall.Seconds())
		return nil
	}
	// Traced: codec bursts untraced, then the sweep and bursts traced;
	// the overhead is measured on the codec stream.
	plainLat, plainLines, plainWall := r.codecBursts(stream, minCodec)
	r.setLatencies("codec burst", plainLat)
	tr, err := startTracer()
	if err != nil {
		return err
	}
	r.tr = tr
	evals, synthWall := r.synthSweep(ctx, baseline)
	_, lines, wall := r.codecBursts(stream, minCodec)
	if err := tr.stop(); err != nil {
		return err
	}
	stream.timeMAC()
	tr.recordLayers(r)
	plainRate, tracedRate := float64(plainLines)/plainWall.Seconds(), float64(lines)/wall.Seconds()
	r.setLayer("trace.overhead_frac", 1-tracedRate/plainRate)
	r.setLayer("codec_lines_per_s", plainRate)
	r.setLayer("synth_evals_per_s", float64(evals)/synthWall.Seconds())
	stream.recordLayers(r)
	return nil
}

// synthSweep executes the sweep through resultcache (the sgattack and
// sgserve path), checks the matrix, and returns its evaluation count and
// wall time.
func (r *run) synthSweep(ctx context.Context, baseline []byte) (int, time.Duration) {
	req := synthRequest(r.opt.seed, r.opt.tiny)
	var raw json.RawMessage
	var err error
	root := r.tr.begin()
	start := time.Now()
	r.tr.call(root, "synth", "resultcache.Execute/synth", func() { raw, err = req.Execute(ctx, nil) })
	wall := time.Since(start)
	defer r.tr.end(root, 0, "synth", "security.synth", start)
	if err != nil {
		r.failf("synthesis sweep: %v", err)
		return 0, wall
	}
	m, err := synth.ParseMatrix(raw)
	if err != nil {
		r.failf("synthesis matrix: %v", err)
		return 0, wall
	}
	ok := r.checkDigest("synth/matrix", digest(raw))
	if baseline != nil && !bytes.Equal(raw, baseline) {
		fmt.Fprintf(r.log, "perfbench: FAIL: seed %d matrix differs from testdata/synth_baseline.json\n", r.opt.seed)
		ok = false
	}
	cfg := req.Synth
	if want := len(cfg.Mitigations) * len(cfg.Thresholds); len(m.Cells) != want {
		fmt.Fprintf(r.log, "perfbench: FAIL: matrix has %d cells, want %d\n", len(m.Cells), want)
		ok = false
	}
	evals, defeated := 0, 0
	var actNS, acts int64
	for _, c := range m.Cells {
		evals += c.Evals
		p, err := payload.Parse(c.Payload)
		if err != nil {
			fmt.Fprintf(r.log, "perfbench: FAIL: cell %s payload: %v\n", c.Mitigation, err)
			ok = false
			continue
		}
		run := func(budget int) (payload.Result, error) {
			bank := cfg.Bank
			bank.Threshold = c.Threshold
			var res payload.Result
			var err error
			r.tr.call(root, "synth", "payload.Run/"+c.Mitigation, func() {
				res, err = payload.Run(ctx, payload.RunConfig{
					Bank: bank, Mitigation: c.Mitigation, Seed: cfg.Seed,
					MaxActivations: budget, MaxCycles: cfg.MaxCycles, Engine: cfg.Engine,
				}, p)
			})
			return res, err
		}
		if c.Defeated {
			defeated++
			// The reported cheapest defeat must flip at its budget and
			// not one activation below it.
			at, err1 := run(c.MinBudget)
			below := payload.Result{}
			var err2 error
			if c.MinBudget > 1 {
				below, err2 = run(c.MinBudget - 1)
			}
			if err1 != nil || err2 != nil || at.TotalFlips == 0 || below.TotalFlips != 0 {
				fmt.Fprintf(r.log, "perfbench: FAIL: cell %s/%d min budget %d does not reproduce (flips %d at, %d below)\n",
					c.Mitigation, c.Threshold, c.MinBudget, at.TotalFlips, below.TotalFlips)
				ok = false
			}
		}
		if r.tr != nil {
			// Re-run the cell's best payload to price one activation.
			t0 := time.Now()
			res, err := run(cfg.Budget)
			if err == nil {
				actNS += time.Since(t0).Nanoseconds()
				acts += int64(res.Activations)
			}
		}
	}
	r.op(ok)
	if r.tr != nil {
		r.setLayer("synth.evals", float64(evals))
		r.setLayer("synth.cells_defeated", float64(defeated))
		if acts > 0 {
			r.setLayer("payload.ns_per_act", float64(actNS)/float64(acts))
		}
	}
	return evals, wall
}

// Codec stream: bursts of lines in six fault classes, each written to a
// fresh address and read back through all six codecs.

const linesPerClass = 6

// codecDef builds one codec and names its fault geometry.
type codecDef struct {
	id   string
	geom int // index into line.deltas
	mk   func(k *mac.Keyed) ecc.Codec
}

// Fault geometries: x8 devices (SECDED family), x4 under the Chipkill
// Reed-Solomon layout, x4 under the SafeGuard-Chipkill layout.
const (
	geomX8 = iota
	geomX4RS
	geomX4SG
	numGeoms
)

var codecDefs = []codecDef{
	{"secded", geomX8, func(*mac.Keyed) ecc.Codec { return ecc.NewSECDED() }},
	{"sg_secded", geomX8, func(k *mac.Keyed) ecc.Codec { return ecc.NewSafeGuardSECDED(k) }},
	{"chipkill", geomX4RS, func(*mac.Keyed) ecc.Codec { return ecc.NewChipkill() }},
	{"sg_chipkill", geomX4SG, func(k *mac.Keyed) ecc.Codec { return ecc.NewSafeGuardChipkill(k) }},
	{"sgx", geomX8, func(k *mac.Keyed) ecc.Codec { return ecc.NewSGXStyleMAC(k) }},
	{"synergy", geomX8, func(k *mac.Keyed) ecc.Codec { return ecc.NewSynergyStyleMAC(k) }},
}

// faultDelta is what a fault XORs into a stored (line, metadata) pair.
type faultDelta struct {
	data bits.Line
	meta uint64
}

type codecLine struct {
	data   bits.Line
	class  int
	deltas [numGeoms]faultDelta
}

// Decode outcomes.
const (
	outOK = iota
	outCorrected
	outDUE
	outSilent // delivered data that differs from what was written
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "corrected", "due", "silent"}

type codecStream struct {
	keyed  *mac.Keyed
	codecs []ecc.Codec
	bursts [][]codecLine
	next   int
	addr   uint64
	// counts[codec][class][outcome] over the first pass of the bursts,
	// the digested reference.
	counts    [][][numOutcomes]int
	firstPass bool
	// Traced-window statistics per codec and class.
	decodeNS  [][]int64
	decodes   [][]int64
	macChecks [][]int64
	faultyMAC int64
	allMAC    int64
	macNS     int64
	macLines  int64
}

// codecInputs draws the stream's MAC key and its bursts from seed.
func codecInputs(seed uint64, tiny bool) ([16]byte, [][]codecLine) {
	rng := rand.New(rand.NewPCG(seed, 0xc0dec))
	var key [16]byte
	for i := range key {
		key[i] = byte(rng.Uint64())
	}
	nBursts := 48
	if tiny {
		nBursts = 4
	}
	bursts := make([][]codecLine, nBursts)
	for b := range bursts {
		bursts[b] = makeBurst(rng)
	}
	return key, bursts
}

// newCodecStream schedules the key and builds the six codecs.
func newCodecStream(key [16]byte, bursts [][]codecLine) *codecStream {
	s := &codecStream{keyed: mac.NewKeyed(key), bursts: bursts, firstPass: true}
	for _, d := range codecDefs {
		s.codecs = append(s.codecs, d.mk(s.keyed))
	}
	n := len(codecDefs)
	s.counts = make([][][numOutcomes]int, n)
	s.decodeNS, s.decodes, s.macChecks = make([][]int64, n), make([][]int64, n), make([][]int64, n)
	for i := range codecDefs {
		s.counts[i] = make([][numOutcomes]int, len(codecClasses))
		s.decodeNS[i] = make([]int64, len(codecClasses))
		s.decodes[i] = make([]int64, len(codecClasses))
		s.macChecks[i] = make([]int64, len(codecClasses))
	}
	return s
}

// burstOrder is the class of each line of a burst. Transient faults
// (bit, pin, chip, Row-Hammer) arrive between healthy reads, as scattered
// independent faults do; the permanent-fault lines are consecutive reads
// of a module with one dead device, which is what SafeGuard-Chipkill's
// remembered chip and ping-pong limit are for.
var burstOrder = func() []int {
	idx := func(name string) int {
		for i, c := range codecClasses {
			if c == name {
				return i
			}
		}
		panic("unknown codec class " + name)
	}
	var order []int
	for i := 0; i < linesPerClass; i++ {
		for _, c := range []string{"bit", "pin", "chip", "rowhammer"} {
			order = append(order, idx("clean"), idx(c))
		}
	}
	for i := 0; i < linesPerClass; i++ {
		order = append(order, idx("permanent"))
	}
	return order
}()

// makeBurst draws one burst of lines in burstOrder; the permanent-fault
// lines share one failed chip.
func makeBurst(rng *rand.Rand) []codecLine {
	var burst []codecLine
	deadX8, deadX4 := rng.IntN(9), rng.IntN(18)
	for _, class := range burstOrder {
		l := codecLine{class: class}
		for w := range l.data {
			l.data[w] = rng.Uint64()
		}
		inject := func(g int, f func(line *bits.Line, meta *uint64)) {
			f(&l.deltas[g].data, &l.deltas[g].meta)
		}
		switch codecClasses[class] {
		case "bit":
			bit := rng.IntN(bits.LineBits)
			for g := 0; g < numGeoms; g++ {
				inject(g, func(line *bits.Line, _ *uint64) { ecc.FlipDataBit(line, bit) })
			}
		case "pin":
			inject(geomX8, func(line *bits.Line, meta *uint64) {
				ecc.InjectColumnFaultX8(line, meta, rng.IntN(8), rng.IntN(8), rng)
			})
			// One x4 data pin, flipped in a nonempty set of beats.
			chip, pin := rng.IntN(ecc.ChipkillDataChips), rng.IntN(4)
			beats := 1 + rng.IntN(255)
			for _, g := range []int{geomX4RS, geomX4SG} {
				inject(g, func(line *bits.Line, _ *uint64) {
					for w := 0; w < bits.LineWords; w++ {
						if beats&(1<<w) != 0 {
							ecc.FlipDataBit(line, 64*w+4*chip+pin)
						}
					}
				})
			}
		case "chip":
			inject(geomX8, func(line *bits.Line, meta *uint64) { ecc.InjectChipFaultX8(line, meta, rng.IntN(9), rng) })
			chip := rng.IntN(18)
			inject(geomX4RS, func(line *bits.Line, meta *uint64) { ecc.InjectChipFaultChipkillRS(line, meta, chip, rng) })
			inject(geomX4SG, func(line *bits.Line, meta *uint64) { ecc.InjectChipFaultX4(line, meta, chip, rng) })
		case "rowhammer":
			// Row-Hammer flips land in the data cells of the victim
			// row: k random bits of the line, whatever the geometry.
			k := 2 + rng.IntN(7)
			var flips bits.Line
			ecc.InjectRandomFlips(&flips, k, rng)
			for g := 0; g < numGeoms; g++ {
				l.deltas[g].data = flips
			}
		case "permanent":
			inject(geomX8, func(line *bits.Line, meta *uint64) { ecc.InjectChipFaultX8(line, meta, deadX8, rng) })
			inject(geomX4RS, func(line *bits.Line, meta *uint64) { ecc.InjectChipFaultChipkillRS(line, meta, deadX4, rng) })
			inject(geomX4SG, func(line *bits.Line, meta *uint64) { ecc.InjectChipFaultX4(line, meta, deadX4, rng) })
		}
		burst = append(burst, l)
	}
	return burst
}

// codecBursts decodes bursts for d and returns each burst's latency in
// ms, the lines decoded and the wall time. The stream's first pass always
// runs to its end, whatever d, so its outcome digest is always checked.
func (r *run) codecBursts(s *codecStream, d time.Duration) ([]float64, int, time.Duration) {
	var lat []float64
	lines := 0
	start := time.Now()
	deadline := start.Add(d)
	for len(lat) == 0 || s.firstPass || time.Now().Before(deadline) {
		t0 := time.Now()
		id := r.tr.begin()
		n := r.codecBurst(s)
		r.tr.end(id, 0, fmt.Sprintf("burst-%d", len(lat)), "codec.burst", t0)
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
		lines += n
	}
	return lat, lines, time.Since(start)
}

// codecBurst writes and reads back one burst through every codec. Each
// write goes to a fresh address, so no codec state (SafeGuard-Chipkill's
// spare lines, the SGX/Synergy metadata regions) outlives its line.
func (r *run) codecBurst(s *codecStream) int {
	burst := s.bursts[s.next]
	traced := r.tr != nil
	for _, l := range burst {
		s.addr += 64
		ok := true
		for ci, c := range s.codecs {
			def := codecDefs[ci]
			meta := c.Encode(l.data, s.addr)
			delta := l.deltas[def.geom]
			var stored bits.Line
			for w := range stored {
				stored[w] = l.data[w] ^ delta.data[w]
			}
			var t0 time.Time
			if traced {
				t0 = time.Now()
			}
			res := c.Decode(stored, meta^delta.meta, s.addr)
			if traced {
				s.decodeNS[ci][l.class] += time.Since(t0).Nanoseconds()
				s.decodes[ci][l.class]++
				s.macChecks[ci][l.class] += int64(res.MACChecks)
				s.allMAC += int64(res.MACChecks)
				s.faultyMAC += int64(res.FaultyMACChecks)
			}
			out := outcome(res, l.data)
			if s.firstPass {
				s.counts[ci][l.class][out]++
			}
			if !expected(def.id, codecClasses[l.class], out) {
				fmt.Fprintf(r.log, "perfbench: FAIL: %s decoded a %s line as %s\n",
					def.id, codecClasses[l.class], outcomeNames[out])
				ok = false
			}
		}
		r.op(ok)
	}
	s.next++
	if s.next == len(s.bursts) {
		s.next = 0
		if s.firstPass {
			s.firstPass = false
			r.op(r.checkDigest("codec/outcomes", s.countsDigest()))
			s.logCounts(r)
		}
	}
	return len(burst)
}

func outcome(res ecc.Result, written bits.Line) int {
	switch {
	case res.Status == ecc.DUE:
		return outDUE
	case res.Line != written:
		return outSilent
	case res.Status == ecc.Corrected:
		return outCorrected
	}
	return outOK
}

// expected is the codec-outcome oracle, independent of the reference
// digests: clean lines read back untouched; single-bit and single-pin
// faults are corrected by every codec; a whole failed chip is corrected
// by the chip-correcting codecs; and no MAC-verified codec ever delivers
// corrupted data silently, whatever the fault. Conventional SECDED and
// Chipkill may silently miscorrect Row-Hammer and multi-symbol damage;
// that is the paper's point, not a failure.
func expected(codec, class string, out int) bool {
	mac := codec != "secded" && codec != "chipkill"
	switch {
	case class == "clean":
		return out == outOK
	case class == "bit" || class == "pin":
		return out == outCorrected
	case (class == "chip" || class == "permanent") && (codec == "chipkill" || codec == "sg_chipkill" || codec == "synergy"):
		// A failed parity device leaves the data intact: ok.
		return out == outCorrected || out == outOK
	case mac:
		return out != outSilent
	}
	return true
}

// countsDigest digests the first pass's outcome counts.
func (s *codecStream) countsDigest() string {
	m := map[string]int{}
	for ci, d := range codecDefs {
		for cl, name := range codecClasses {
			for o, n := range s.counts[ci][cl] {
				if n > 0 {
					m[d.id+"/"+name+"/"+outcomeNames[o]] = n
				}
			}
		}
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, m[k])
	}
	return digest(b.Bytes())
}

// logCounts logs the first pass's outcomes, one codec per line.
func (s *codecStream) logCounts(r *run) {
	for ci, d := range codecDefs {
		var b bytes.Buffer
		for cl, name := range codecClasses {
			fmt.Fprintf(&b, " %s=%v", name, s.counts[ci][cl])
		}
		fmt.Fprintf(r.log, "perfbench: codec %-11s [ok corrected due silent]%s\n", d.id, b.String())
	}
}

// timeMAC prices one MAC over every line of one pass, at fresh
// addresses. It runs after the traced window, so the traced bursts do the
// same work as the untraced ones.
func (s *codecStream) timeMAC() {
	start := time.Now()
	for _, burst := range s.bursts {
		for _, l := range burst {
			s.addr += 64
			_ = s.keyed.MAC64(l.data, s.addr)
			s.macLines++
		}
	}
	s.macNS += time.Since(start).Nanoseconds()
}

// recordLayers sets the codec per-layer metrics from the traced window.
func (s *codecStream) recordLayers(r *run) {
	for ci, d := range codecDefs {
		for cl, name := range codecClasses {
			if n := s.decodes[ci][cl]; n > 0 {
				r.setLayer("ecc.decode_us."+d.id+"."+name, float64(s.decodeNS[ci][cl])/float64(n)/1e3)
				r.setLayer("ecc.mac_checks_per_line."+d.id+"."+name, float64(s.macChecks[ci][cl])/float64(n))
			}
		}
	}
	if s.allMAC > 0 {
		r.setLayer("ecc.mac_useful_frac", float64(s.allMAC-s.faultyMAC)/float64(s.allMAC))
	}
	if s.macLines > 0 {
		r.setLayer("mac.ns_per_line", float64(s.macNS)/float64(s.macLines))
	}
}
