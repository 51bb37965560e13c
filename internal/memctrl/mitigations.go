// Row-Hammer mitigations as controller plugins: PARA, TRR, Graphene and
// BlockHammer are pure functions of the ACT/REF command stream they
// observe. Their victim refreshes go out through a VRRSink and their
// throttling through ActGate, so the same plugin runs in two places: the
// cycle-level Controller, which issues the VRRs under real bank timing,
// and the untimed attack driver (rowhammer.RunAttack), whose sink
// refreshes the model bank at once. This file is the only implementation
// of these defences.
//
// State is kept per (rank, bank): one sampler/tracker/filter instance per
// bank, exactly as a per-bank deployment would provision them. Per-window
// state rotates on every REFsPerWindow-th REF of the rank.
package memctrl

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"safeguard/internal/bloom"
)

// The refresh-window budget of one bank: ActsPerWindow activations fit in
// a 64ms window (tRC ≈ 47ns), during which the controller issues
// REFsPerWindow REF commands (tREFI = 7.8us).
const (
	ActsPerWindow = 1_360_000
	REFsPerWindow = 8192
)

type bankKey struct{ rank, bank int }

func sortedKeysOfRank(keys map[bankKey]struct{}, rank int) []bankKey {
	out := make([]bankKey, 0, len(keys))
	for k := range keys {
		if k.rank == rank {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].bank < out[j].bank })
	return out
}

// MitigationNames lists the registry's mitigation names.
func MitigationNames() []string {
	return []string{"none", "para", "trr", "graphene", "blockhammer"}
}

// NewMitigationPlugin resolves a mitigation by registry name, sized for
// the given RH-Threshold. "none" (or the empty string) returns a nil
// plugin; unknown names are an error naming the valid set.
func NewMitigationPlugin(name string, threshold int, seed uint64) (Plugin, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "none":
		return nil, nil
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("mitigation %q requires a positive RH-Threshold, got %d", name, threshold)
	}
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "para":
		return NewPARAPlugin(threshold, seed), nil
	case "trr":
		return NewTRRPlugin(4), nil
	case "graphene":
		return NewGraphenePlugin(threshold), nil
	case "blockhammer":
		return NewBlockHammerPlugin(threshold), nil
	default:
		return nil, fmt.Errorf("unknown mitigation %q (valid: %s)",
			name, strings.Join(MitigationNames(), ", "))
	}
}

// ---------------------------------------------------------------------------
// PARA
// ---------------------------------------------------------------------------

// PARAPlugin is PARA (Kim et al., ISCA'14): on every ACT, with
// probability P, enqueue VRRs for the aggressor's immediate neighbours.
// P must be tailored to the RH-Threshold — the paper's point about
// threshold-dependent defences.
type PARAPlugin struct {
	// P is the per-activation refresh probability.
	P    float64
	src  *rand.PCG // kept alongside rng: checkpoints marshal the PCG state
	rng  *rand.Rand
	sink VRRSink

	acts, triggers, vrrs float64
}

// NewPARAPlugin sizes PARA for the threshold: P = 10/threshold makes the
// chance of a victim surviving `threshold` activations without a refresh
// (1-P)^threshold ≈ e^-10 ≈ 5e-5. Note the Half-Double irony: the
// stronger P is, the more middle-row refreshes the mitigation itself
// issues on behalf of a distance-2 attacker.
func NewPARAPlugin(threshold int, seed uint64) *PARAPlugin {
	src := rand.NewPCG(seed, 0xAA)
	return &PARAPlugin{P: 10.0 / float64(threshold), src: src, rng: rand.New(src)}
}

// Name implements Plugin.
func (p *PARAPlugin) Name() string { return "para" }

// BindSink implements SinkBinder.
func (p *PARAPlugin) BindSink(s VRRSink) { p.sink = s }

// OnCommand implements Plugin.
func (p *PARAPlugin) OnCommand(cmd Command, rank, bank, row int, cycle int64) {
	if cmd != CmdACT {
		return
	}
	p.acts++
	if p.rng.Float64() < p.P {
		p.triggers++
		p.vrr(rank, bank, row-1)
		p.vrr(rank, bank, row+1)
	}
}

func (p *PARAPlugin) vrr(rank, bank, row int) {
	if p.sink != nil && p.sink.EnqueueVRR(rank, bank, row) {
		p.vrrs++
	}
}

// DrainStats implements Plugin.
func (p *PARAPlugin) DrainStats() PluginStats {
	s := PluginStats{"acts": p.acts, "triggers": p.triggers, "vrrs": p.vrrs}
	p.acts, p.triggers, p.vrrs = 0, 0, 0
	return s
}

// ---------------------------------------------------------------------------
// TRR
// ---------------------------------------------------------------------------

type trrBank struct {
	counts        map[int]int
	lastRefreshed map[int]int
	refIndex      int
}

// TRRPlugin models in-DRAM Targeted Row Refresh the way deployed
// samplers work (and the way TRRespass characterized them): per-bank
// activation counts within the current REF interval; on each REF the
// neighbours of the hottest rows of that rank's banks get VRRs, then the
// samplers clear. The tiny capacity and per-interval horizon are exactly
// what TRRespass exploits — a stream of dummy rows out-counts the true
// aggressors in every interval, so the victims' neighbours are never the
// ones refreshed.
type TRRPlugin struct {
	// TableSize is the sampler capacity (real devices track only a
	// handful of rows).
	TableSize int
	// VictimsPerREF is how many tracked rows get their neighbours
	// refreshed per REF command.
	VictimsPerREF int
	// RefreshCooldownREFs rate-limits per-row victim refreshes: a row
	// refreshed within this many REF commands is skipped. Without the
	// limit the mitigation would re-activate the same victims thousands
	// of times per window and hammer *their* neighbours itself.
	RefreshCooldownREFs int
	// EligibleMin is the per-interval activation-count bar: a row is
	// considered an aggressor only if it was activated at least this
	// many times within the REF interval. TRRespass's dummy-row
	// calibration keeps the true aggressors just under this bar while
	// the dummies stay above it.
	EligibleMin int

	banks map[bankKey]*trrBank
	keys  map[bankKey]struct{}
	sink  VRRSink

	acts, vrrs float64
}

// NewTRRPlugin builds per-bank TRR samplers with the given capacity.
func NewTRRPlugin(tableSize int) *TRRPlugin {
	return &TRRPlugin{
		TableSize:           tableSize,
		VictimsPerREF:       2,
		RefreshCooldownREFs: 8,
		EligibleMin:         8,
		banks:               make(map[bankKey]*trrBank),
		keys:                make(map[bankKey]struct{}),
	}
}

// Name implements Plugin.
func (t *TRRPlugin) Name() string { return "trr" }

// BindSink implements SinkBinder.
func (t *TRRPlugin) BindSink(s VRRSink) { t.sink = s }

func (t *TRRPlugin) bank(k bankKey) *trrBank {
	b, ok := t.banks[k]
	if !ok {
		b = &trrBank{counts: make(map[int]int), lastRefreshed: make(map[int]int)}
		t.banks[k] = b
		t.keys[k] = struct{}{}
	}
	return b
}

// OnCommand implements Plugin.
func (t *TRRPlugin) OnCommand(cmd Command, rank, bank, row int, cycle int64) {
	switch cmd {
	case CmdACT:
		t.acts++
		t.sample(t.bank(bankKey{rank, bank}), row)
	case CmdREF:
		for _, k := range sortedKeysOfRank(t.keys, rank) {
			t.onREF(k, t.banks[k])
		}
	}
}

// sample counts rows seen this REF interval; on overflow it evicts the
// coldest entry (smallest row on ties, so eviction does not depend on map
// iteration order).
func (t *TRRPlugin) sample(b *trrBank, row int) {
	if _, ok := b.counts[row]; ok {
		b.counts[row]++
		return
	}
	if len(b.counts) >= t.TableSize {
		minRow, minCount := -1, int(^uint(0)>>1)
		for r, c := range b.counts {
			if c < minCount || (c == minCount && r < minRow) {
				minRow, minCount = r, c
			}
		}
		delete(b.counts, minRow)
	}
	b.counts[row] = 1
}

// onREF VRRs the neighbours of the hottest-this-interval rows, then
// starts a fresh interval.
func (t *TRRPlugin) onREF(k bankKey, b *trrBank) {
	if len(b.counts) == 0 {
		return
	}
	hot := make([]int, 0, len(b.counts))
	for r, c := range b.counts {
		if c >= t.EligibleMin {
			hot = append(hot, r)
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if b.counts[hot[i]] != b.counts[hot[j]] {
			return b.counts[hot[i]] > b.counts[hot[j]]
		}
		return hot[i] < hot[j]
	})
	n := t.VictimsPerREF
	if n > len(hot) {
		n = len(hot)
	}
	b.refIndex++
	for _, r := range hot[:n] {
		for _, victim := range [2]int{r - 1, r + 1} {
			if last, ok := b.lastRefreshed[victim]; ok && b.refIndex-last < t.RefreshCooldownREFs {
				continue
			}
			if t.sink != nil && t.sink.EnqueueVRR(k.rank, k.bank, victim) {
				t.vrrs++
			}
			b.lastRefreshed[victim] = b.refIndex
		}
	}
	b.counts = make(map[int]int)
}

// DrainStats implements Plugin.
func (t *TRRPlugin) DrainStats() PluginStats {
	s := PluginStats{"acts": t.acts, "vrrs": t.vrrs}
	t.acts, t.vrrs = 0, 0
	return s
}

// ---------------------------------------------------------------------------
// Graphene
// ---------------------------------------------------------------------------

type grapheneBank struct {
	counts map[int]int
	spill  int
}

// GraphenePlugin is the Misra–Gries tracker (Park et al., MICRO'20):
// per-bank exact frequent-element counting; a row crossing the trigger
// gets its neighbours VRR'd. Frequent-element counting is immune to the
// capacity eviction TRRespass relies on, but the refreshes still target
// only immediate neighbours, which Half-Double turns into a weapon.
// Tables reset every refresh window, counted as REFsPerWindow REF
// commands per rank.
type GraphenePlugin struct {
	Trigger  int
	Counters int

	banks map[bankKey]*grapheneBank
	refs  map[int]int // per-rank REF count, for window rotation
	sink  VRRSink

	acts, triggers, vrrs float64
}

// NewGraphenePlugin sizes the tracker for a design threshold: trigger at
// half the threshold, with enough counters to cover the window's
// activation budget so decrement-evictions cannot hide a real aggressor.
func NewGraphenePlugin(designThreshold int) *GraphenePlugin {
	trigger := designThreshold / 2
	if trigger < 1 {
		trigger = 1
	}
	return &GraphenePlugin{
		Trigger:  trigger,
		Counters: ActsPerWindow/trigger + 1,
		banks:    make(map[bankKey]*grapheneBank),
		refs:     make(map[int]int),
	}
}

// Name implements Plugin.
func (g *GraphenePlugin) Name() string { return "graphene" }

// BindSink implements SinkBinder.
func (g *GraphenePlugin) BindSink(s VRRSink) { g.sink = s }

// OnCommand implements Plugin.
func (g *GraphenePlugin) OnCommand(cmd Command, rank, bank, row int, cycle int64) {
	switch cmd {
	case CmdACT:
		g.acts++
		g.track(bankKey{rank, bank}, row)
	case CmdREF:
		g.refs[rank]++
		if g.refs[rank]%REFsPerWindow == 0 {
			for k, b := range g.banks {
				if k.rank == rank {
					b.counts = make(map[int]int)
					b.spill = 0
				}
			}
		}
	}
}

// track is the Misra–Gries update plus the trigger check.
func (g *GraphenePlugin) track(k bankKey, row int) {
	b, ok := g.banks[k]
	if !ok {
		b = &grapheneBank{counts: make(map[int]int)}
		g.banks[k] = b
	}
	if _, ok := b.counts[row]; ok {
		b.counts[row]++
	} else if len(b.counts) < g.Counters {
		b.counts[row] = b.spill + 1
	} else {
		b.spill++
		for r, c := range b.counts {
			if c <= b.spill {
				delete(b.counts, r)
			}
		}
	}
	if c, ok := b.counts[row]; ok && c-b.spill >= g.Trigger {
		g.triggers++
		g.vrr(k, row-1)
		g.vrr(k, row+1)
		b.counts[row] = b.spill
	}
}

func (g *GraphenePlugin) vrr(k bankKey, row int) {
	if g.sink != nil && g.sink.EnqueueVRR(k.rank, k.bank, row) {
		g.vrrs++
	}
}

// DrainStats implements Plugin.
func (g *GraphenePlugin) DrainStats() PluginStats {
	s := PluginStats{"acts": g.acts, "triggers": g.triggers, "vrrs": g.vrrs}
	g.acts, g.triggers, g.vrrs = 0, 0, 0
	return s
}

// ---------------------------------------------------------------------------
// BlockHammer
// ---------------------------------------------------------------------------

// BlockHammerPlugin is BlockHammer (Yağlıkçı et al., HPCA 2021), which
// Section VIII of the SafeGuard paper discusses: per-bank counting Bloom
// filters track activations within the refresh window, and rows at the
// per-window cap are denied further ACTs through ActGate. In the
// controller a denial is real queueing delay; in the untimed driver it is
// a lost command slot. The Bloom estimate never underestimates, so the
// cap holds even under collisions.
//
// It has the two weaknesses the paper calls out: it must be sized for a
// particular RH-Threshold (a module with a lower threshold than designed
// for still flips bits), and blacklisted-but-benign hot rows suffer
// severe added latency.
type BlockHammerPlugin struct {
	// DesignThreshold is the RH-Threshold the filter caps were sized for.
	DesignThreshold int

	actCap  uint32
	filters map[bankKey]*bloom.Counting
	refs    map[int]int

	acts, throttled float64
}

// NewBlockHammerPlugin sizes the mitigation for a design threshold. The
// per-row cap is threshold/2 - 1: a victim's disturbance sums over both
// its neighbours (double-sided hammering), so each aggressor must
// individually stay below T/2 for the sum to stay below T.
func NewBlockHammerPlugin(designThreshold int) *BlockHammerPlugin {
	c := designThreshold/2 - 1
	if c < 1 {
		c = 1
	}
	return &BlockHammerPlugin{
		DesignThreshold: designThreshold,
		actCap:          uint32(c),
		filters:         make(map[bankKey]*bloom.Counting),
		refs:            make(map[int]int),
	}
}

// Name implements Plugin.
func (bh *BlockHammerPlugin) Name() string { return "blockhammer" }

func (bh *BlockHammerPlugin) filter(k bankKey) *bloom.Counting {
	f, ok := bh.filters[k]
	if !ok {
		f = bloom.NewCounting(1<<14, 4, 0xB10C)
		bh.filters[k] = f
	}
	return f
}

// AllowAct implements ActGate: deny ACTs to rows at the per-window cap.
func (bh *BlockHammerPlugin) AllowAct(rank, bank, row int, cycle int64) bool {
	if bh.filter(bankKey{rank, bank}).Estimate(uint64(row)) >= bh.actCap {
		bh.throttled++
		return false
	}
	return true
}

// OnCommand implements Plugin.
func (bh *BlockHammerPlugin) OnCommand(cmd Command, rank, bank, row int, cycle int64) {
	switch cmd {
	case CmdACT:
		bh.acts++
		bh.filter(bankKey{rank, bank}).Insert(uint64(row))
	case CmdREF:
		bh.refs[rank]++
		if bh.refs[rank]%REFsPerWindow == 0 {
			for k, f := range bh.filters {
				if k.rank == rank {
					f.Clear()
				}
			}
		}
	}
}

// DrainStats implements Plugin.
func (bh *BlockHammerPlugin) DrainStats() PluginStats {
	s := PluginStats{"acts": bh.acts, "throttled": bh.throttled}
	bh.acts, bh.throttled = 0, 0
	return s
}
