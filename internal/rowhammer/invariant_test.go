package rowhammer_test

import (
	"fmt"
	"testing"

	"safeguard/internal/memctrl"
	"safeguard/internal/rowhammer"
)

// The invariant oracle checks the untimed driver and the mitigation
// plugins against properties stated independently of both. A recorder
// plugin wraps the mitigation, sees the driver's raw stream — every ACT
// slot, allowed ACT, VRR and REF — and replays it into a disturbance
// recomputation that shares no code with Bank: the weights below are the
// model's documented physics (a distance-1 neighbour gains 512 units per
// activation, a distance-2 neighbour 1; an activation or refresh clears
// the row; the window's auto-refresh clears every row).
const (
	oracleWeight1 = 512
	oracleWeight2 = 1
)

// invariantOracle is the replayed bank plus the per-mitigation bounds.
type invariantOracle struct {
	t         *testing.T
	name      string
	bank      *rowhammer.Bank // observed only through Flips()
	cfg       rowhammer.Config
	mit       string
	actCap    int // BlockHammer: max ACTs per row per window
	trr       *memctrl.TRRPlugin
	dist      []int64
	sinceRef  []int // flips per row since its last refresh
	seenFlips int

	winActs    []int // allowed ACTs per row this window
	winTouched []int
	refActs    []int // allowed ACTs per row this REF interval
	refTouched []int

	slots, refs int
	inREF       bool
	actRow      int // row of the ACT being dispatched, -1 outside one
	refVRRs     int

	// Totals, so a pass is not vacuous.
	flips, vrrs, denied int
}

func newInvariantOracle(t *testing.T, c goldenCase, b *rowhammer.Bank, mit memctrl.Plugin) *invariantOracle {
	o := &invariantOracle{
		t: t, name: c.name, bank: b, cfg: c.cfg, mit: c.mitigation,
		dist:     make([]int64, c.cfg.Rows),
		sinceRef: make([]int, c.cfg.Rows),
		winActs:  make([]int, c.cfg.Rows),
		refActs:  make([]int, c.cfg.Rows),
		actRow:   -1,
	}
	if c.mitigation == "blockhammer" {
		o.actCap = max(c.threshold/2-1, 1)
	}
	if trr, ok := mit.(*memctrl.TRRPlugin); ok {
		o.trr = trr
	}
	return o
}

func (o *invariantOracle) failf(format string, args ...any) {
	o.t.Helper()
	o.t.Fatalf("%s: %s", o.name, fmt.Sprintf(format, args...))
}

// touch replays one activation or refresh of row.
func (o *invariantOracle) touch(row int) {
	o.dist[row], o.sinceRef[row] = 0, 0
	for _, d := range [...]struct {
		off int
		w   int64
	}{{-1, oracleWeight1}, {1, oracleWeight1}, {-2, oracleWeight2}, {2, oracleWeight2}} {
		if v := row + d.off; v >= 0 && v < o.cfg.Rows {
			o.dist[v] += d.w
		}
	}
	o.checkFlips()
}

// checkFlips: every new flip lands in a row whose recomputed disturbance
// since its last refresh has crossed the threshold, and each crossing
// releases at most FlipsPerCrossing flips.
func (o *invariantOracle) checkFlips() {
	limit := int64(o.cfg.Threshold) * oracleWeight1
	all := o.bank.Flips()
	for _, f := range all[o.seenFlips:] {
		o.sinceRef[f.Row]++
		crossings := int(o.dist[f.Row] / limit)
		if crossings == 0 {
			o.failf("row %d flipped at disturbance %d, below the threshold %d",
				f.Row, o.dist[f.Row], limit)
		}
		if o.sinceRef[f.Row] > crossings*o.cfg.FlipsPerCrossing {
			o.failf("row %d: %d flips since its last refresh, but only %d threshold crossings",
				f.Row, o.sinceRef[f.Row], crossings)
		}
		o.flips++
	}
	o.seenFlips = len(all)
}

func (o *invariantOracle) act(row int) {
	o.touch(row)
	if o.winActs[row] == 0 {
		o.winTouched = append(o.winTouched, row)
	}
	o.winActs[row]++
	if o.actCap > 0 && o.winActs[row] > o.actCap {
		o.failf("BlockHammer let row %d reach %d ACTs in one window (cap %d)", row, o.winActs[row], o.actCap)
	}
	if o.refActs[row] == 0 {
		o.refTouched = append(o.refTouched, row)
	}
	o.refActs[row]++
}

func (o *invariantOracle) vrr(row int, applied bool) {
	o.vrrs++
	switch {
	case o.mit == "blockhammer" || o.mit == "none":
		o.failf("%s requested a VRR of row %d", o.mit, row)
	case o.mit == "trr":
		if !o.inREF {
			o.failf("TRR requested a VRR of row %d outside a REF", row)
		}
		o.refVRRs++
		if o.refVRRs > 2*o.trr.VictimsPerREF {
			o.failf("TRR issued %d VRRs on one REF (bound %d)", o.refVRRs, 2*o.trr.VictimsPerREF)
		}
		if o.intervalActs(row-1) < o.trr.EligibleMin && o.intervalActs(row+1) < o.trr.EligibleMin {
			o.failf("TRR refreshed row %d, but neither neighbour had %d ACTs this interval",
				row, o.trr.EligibleMin)
		}
	default: // para, graphene: neighbours of the row just activated
		if o.actRow < 0 || (row != o.actRow-1 && row != o.actRow+1) {
			o.failf("%s refreshed row %d while activating row %d", o.mit, row, o.actRow)
		}
	}
	if applied {
		o.touch(row)
	}
}

func (o *invariantOracle) intervalActs(row int) int {
	if row < 0 || row >= o.cfg.Rows {
		return 0
	}
	return o.refActs[row]
}

// refDone closes a REF interval; every REFsPerWindow-th REF ends the
// window, which must come after exactly ActsPerWindow command slots.
func (o *invariantOracle) refDone() {
	for _, r := range o.refTouched {
		o.refActs[r] = 0
	}
	o.refTouched = o.refTouched[:0]
	o.refs++
	if o.refs%memctrl.REFsPerWindow != 0 {
		return
	}
	if o.slots != memctrl.ActsPerWindow {
		o.failf("window closed after %d ACT slots, want %d", o.slots, memctrl.ActsPerWindow)
	}
	o.slots = 0
	for _, r := range o.winTouched {
		o.winActs[r] = 0
	}
	o.winTouched = o.winTouched[:0]
	for i := range o.dist {
		o.dist[i], o.sinceRef[i] = 0, 0
	}
}

// streamRecorder is the plugin the driver sees: it forwards every call to
// the wrapped mitigation and reports the stream to the oracle.
type streamRecorder struct {
	inner memctrl.Plugin
	sink  memctrl.VRRSink
	o     *invariantOracle
}

func (r *streamRecorder) Name() string {
	if r.inner == nil {
		return "none"
	}
	return r.inner.Name()
}

func (r *streamRecorder) BindSink(s memctrl.VRRSink) {
	r.sink = s
	if sb, ok := r.inner.(memctrl.SinkBinder); ok {
		sb.BindSink(r)
	}
}

func (r *streamRecorder) EnqueueVRR(rank, bank, row int) bool {
	ok := r.sink.EnqueueVRR(rank, bank, row)
	r.o.vrr(row, ok)
	return ok
}

func (r *streamRecorder) AllowAct(rank, bank, row int, cycle int64) bool {
	r.o.slots++
	if g, ok := r.inner.(memctrl.ActGate); ok && !g.AllowAct(rank, bank, row, cycle) {
		r.o.denied++
		return false
	}
	return true
}

func (r *streamRecorder) OnCommand(cmd memctrl.Command, rank, bank, row int, cycle int64) {
	switch cmd {
	case memctrl.CmdACT:
		r.o.act(row)
		r.o.actRow = row
	case memctrl.CmdREF:
		r.o.inREF, r.o.refVRRs = true, 0
	}
	if r.inner != nil {
		r.inner.OnCommand(cmd, rank, bank, row, cycle)
	}
	switch cmd {
	case memctrl.CmdACT:
		r.o.actRow = -1
	case memctrl.CmdREF:
		r.o.inREF = false
		r.o.refDone()
	}
}

func (r *streamRecorder) DrainStats() memctrl.PluginStats {
	if r.inner == nil {
		return nil
	}
	return r.inner.DrainStats()
}

// invariantStudies are the golden studies the oracle replays: one per
// mitigation and pattern shape (the other seeds only move vulnerable
// cells), keeping the test affordable under -race.
var invariantStudies = map[string]bool{
	"figure1b/seed7/trr/trrespass":         true,
	"figure1b/seed7/para/half-double":      true,
	"figure1b/seed7/graphene/half-double":  true,
	"figure1b/seed7/trr/half-double":       true,
	"blockhammer-sizing/seed7/sized":       true,
	"blockhammer-sizing/seed7/under-sized": true,
	"ablation/none/double-sided":           true,
	"blockhammer-unit/many-sided":          true,
}

// TestInvariantOracle replays the invariant studies through the oracle.
func TestInvariantOracle(t *testing.T) {
	t.Parallel()
	type tally struct{ flips, vrrs, denied int }
	totals := map[string]tally{}
	for _, c := range goldenCases() {
		if !invariantStudies[c.name] {
			continue
		}
		b := rowhammer.NewBank(c.cfg)
		mit, err := memctrl.NewMitigationPlugin(c.mitigation, c.threshold, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		o := newInvariantOracle(t, c, b, mit)
		res := rowhammer.RunAttackAround(b, &streamRecorder{inner: mit, o: o}, c.pattern(), c.windows, c.reference)
		if o.refs != c.windows*memctrl.REFsPerWindow {
			t.Fatalf("%s: %d REFs over %d windows", c.name, o.refs, c.windows)
		}
		if o.flips != res.TotalFlips || o.denied != res.Throttled {
			t.Fatalf("%s: oracle saw %d flips / %d denials, driver reported %d / %d",
				c.name, o.flips, o.denied, res.TotalFlips, res.Throttled)
		}
		sum := totals[c.mitigation]
		totals[c.mitigation] = tally{sum.flips + o.flips, sum.vrrs + o.vrrs, sum.denied + o.denied}
	}
	// Every property must have been exercised, not passed vacuously.
	for _, mit := range []string{"para", "trr", "graphene"} {
		if sum := totals[mit]; sum.vrrs == 0 || sum.flips == 0 {
			t.Errorf("%s: the studies issued no VRRs or flipped nothing; its invariants went unchecked", mit)
		}
	}
	if totals["blockhammer"].denied == 0 {
		t.Error("blockhammer: no ACT was ever denied; the cap went unchecked")
	}
}
