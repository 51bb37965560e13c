package rowhammer

import (
	"sort"

	"safeguard/internal/dram"
	"safeguard/internal/memctrl"
)

// ActivationTracer is a controller plugin that feeds the controller's
// real command stream into this package's disturbance model: every ACT
// disturbs the activated row's neighbours, every VRR is a mitigation
// refresh (itself an activation — the Half-Double lever), and each rank's
// REF cadence drives the 64ms refresh-window rotation. Attaching it to a
// memctrl.Controller runs attacks *through* FR-FCFS scheduling, refresh
// blackouts, and VRR timing instead of the idealized RunAttack loop.
type ActivationTracer struct {
	cfg   Config
	banks map[[2]int]*Bank
	refs  map[int]int

	lastActs, lastVRRs, lastFlips float64

	// Skip-span accounting (event engine only). Kept out of DrainStats:
	// plugin stats are compared bit-for-bit between engines, and spans
	// exist only in the event engine.
	spans         int64
	spannedCycles int64
}

// NewAttackController builds the controller the controller-driven attack
// runners (payload.Run, RunResponseAttack) drive: one rank and one bank
// of DDR4-3200 sized to cfg, so every row switch is a genuine
// precharge+activate, with the registry mitigation (nil for "none")
// attached first and an ActivationTracer over cfg second. The mapper
// encodes (row, column) coordinates of that bank.
func NewAttackController(cfg Config, mitigation string, threshold int, seed uint64) (*memctrl.Controller, *ActivationTracer, *dram.Mapper, error) {
	geom := dram.Geometry{
		Ranks: 1, Banks: 1, RowsPerBank: cfg.Rows,
		RowBytes: cfg.LinesPerRow * 64, LineBytes: 64,
	}
	if err := geom.Validate(); err != nil {
		return nil, nil, nil, err
	}
	mc := memctrl.New(geom, dram.DDR4_3200())
	mit, err := memctrl.NewMitigationPlugin(mitigation, threshold, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	mc.AttachPlugin(mit)
	tracer := NewActivationTracer(cfg)
	mc.AttachPlugin(tracer)
	return mc, tracer, dram.NewMapper(geom), nil
}

// NewActivationTracer builds a tracer; each (rank, bank) the controller
// touches lazily gets its own Bank with this configuration.
func NewActivationTracer(cfg Config) *ActivationTracer {
	return &ActivationTracer{
		cfg:   cfg,
		banks: make(map[[2]int]*Bank),
		refs:  make(map[int]int),
	}
}

// Name implements memctrl.Plugin.
func (t *ActivationTracer) Name() string { return "activation-tracer" }

// Bank returns (creating on first use) the disturbance model of one
// physical bank.
func (t *ActivationTracer) Bank(rank, bank int) *Bank {
	k := [2]int{rank, bank}
	b, ok := t.banks[k]
	if !ok {
		b = NewBank(t.cfg)
		t.banks[k] = b
	}
	return b
}

// OnCommand implements memctrl.Plugin.
func (t *ActivationTracer) OnCommand(cmd memctrl.Command, rank, bank, row int, cycle int64) {
	switch cmd {
	case memctrl.CmdACT:
		t.Bank(rank, bank).Activate(row)
	case memctrl.CmdVRR:
		t.Bank(rank, bank).RefreshRow(row)
	case memctrl.CmdREF:
		t.refs[rank]++
		if t.refs[rank]%memctrl.REFsPerWindow == 0 {
			for k, b := range t.banks {
				if k[0] == rank {
					b.RefreshWindow()
				}
			}
		}
	}
}

// OnSpan implements memctrl.SpanObserver: the controller jumped over an
// idle stretch with no commands. No disturbance happens without
// commands, so the model does not change; the tracer only records the
// span for skip diagnostics (see Spans).
func (t *ActivationTracer) OnSpan(from, to int64) {
	t.spans++
	t.spannedCycles += to - from
}

// Spans reports how many idle spans the controller skipped past the
// tracer and their total length in MC cycles. Zero under the cycle
// engine.
func (t *ActivationTracer) Spans() (count, cycles int64) {
	return t.spans, t.spannedCycles
}

// DrainStats implements memctrl.Plugin: activity since the last drain.
func (t *ActivationTracer) DrainStats() memctrl.PluginStats {
	var acts, vrrs, flips float64
	for _, b := range t.banks {
		acts += float64(b.Activations)
		vrrs += float64(b.MitigationRefreshes)
		flips += float64(len(b.Flips()))
	}
	s := memctrl.PluginStats{
		"acts":                acts - t.lastActs,
		"mitigationRefreshes": vrrs - t.lastVRRs,
		"flips":               flips - t.lastFlips,
	}
	t.lastActs, t.lastVRRs, t.lastFlips = acts, vrrs, flips
	return s
}

// Flips aggregates every recorded flip across tracked banks, in (rank,
// bank) order.
func (t *ActivationTracer) Flips() []Flip {
	keys := make([][2]int, 0, len(t.banks))
	for k := range t.banks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var out []Flip
	for _, k := range keys {
		out = append(out, t.banks[k].Flips()...)
	}
	return out
}
