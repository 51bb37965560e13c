// The payload interpreter: programs execute against the cycle-level
// DDR4 controller. Each ACT becomes a line read scheduled under FR-FCFS
// on a single-bank geometry (so every row switch is a genuine
// precharge+activate), the named mitigation runs as a controller plugin
// issuing real VRR commands, and the rowhammer.ActivationTracer folds
// the resulting command stream into the disturbance model.
// testdata/controller_attacks_golden.json pins Run's results for the
// library attacks under every mitigation, and both engines must
// reproduce them.
//
// NOP is the one thing a bare activation stream cannot express: an idle
// span in which the program issues nothing while queued victim
// refreshes drain and REF cadence advances. The searcher uses it to
// jitter inter-ACT gaps.
package payload

import (
	"cmp"
	"context"
	"fmt"

	"safeguard/internal/dram"
	"safeguard/internal/memctrl"
	"safeguard/internal/rowhammer"
)

// Engine names for RunConfig.Engine.
const (
	// EngineEvent advances the controller on its next-event time wheel,
	// skipping provably idle stretches — the default, matching the sim
	// package's event engine.
	EngineEvent = "event"
	// EngineCycle ticks every MC cycle, the reference loop.
	EngineCycle = "cycle"
)

// RunConfig drives one program through the controller.
type RunConfig struct {
	// Bank configures the disturbance model (Rows and LinesPerRow must
	// be powers of two for the address mapper).
	Bank rowhammer.Config
	// Mitigation is a registry name from memctrl.MitigationNames().
	Mitigation string
	// MitigationThreshold sizes the mitigation; defaults to
	// Bank.Threshold.
	MitigationThreshold int
	// Seed drives the mitigation's randomness (PARA).
	Seed uint64
	// MaxActivations caps the ACT steps executed (0 = run the whole
	// program). The searcher uses it as the attacker's activation budget.
	MaxActivations int
	// MaxCycles bounds the run; BlockHammer legitimately stalls a
	// throttled program until the refresh window rotates. Defaults to
	// 4000 cycles per budgeted ACT plus slack.
	MaxCycles int64
	// Engine selects EngineEvent (default) or EngineCycle.
	Engine string
}

// Result summarizes one program run.
type Result struct {
	Program    string
	Mitigation string
	// Activations counts program ACT steps completed (< the budget when
	// stalled).
	Activations int
	// NopCycles counts idle cycles the program spent in NOPs.
	NopCycles int64
	Cycles    int64
	// Stalled reports the run hit MaxCycles before finishing.
	Stalled bool
	// TotalFlips and FlipsByRow read the disturbance model's damage.
	TotalFlips          int
	FlipsByRow          map[int]int
	MitigationRefreshes int
	// PeakRow / PeakDisturbance report the highest disturbance any row
	// accumulated at any point of the run, in activation-equivalents —
	// the searcher's fitness gradient when no flip lands.
	PeakRow         int
	PeakDisturbance float64
	PluginStats     map[string]memctrl.PluginStats
	MCStats         memctrl.Stats
}

// String is the one-line run summary (the sgattack -mc rows): program
// ACTs completed as "accesses", then the bank activations the tracer saw
// (victim refreshes included) and the VRRs the controller issued.
func (r Result) String() string {
	return fmt.Sprintf("%-38s vs %-11s: %6d flips in %9d MC cycles (%d accesses, %d ACTs, %d VRRs)",
		r.Program, r.Mitigation, r.TotalFlips, r.Cycles, r.Activations,
		int(r.PluginStats["activation-tracer"]["acts"]), r.MCStats.VRRs)
}

// Run executes the program under the controller; see the package
// comment for the execution model. On ctx cancellation the partial
// result accumulated so far returns with the context's error.
func Run(ctx context.Context, cfg RunConfig, p *Program) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Bank.Rows == 0 {
		cfg.Bank = rowhammer.DefaultConfig()
	}
	if err := cfg.Bank.Validate(); err != nil {
		return Result{}, err
	}
	var event bool
	switch cfg.Engine {
	case "", EngineEvent:
		event = true
	case EngineCycle:
		event = false
	default:
		return Result{}, fmt.Errorf("payload: unknown engine %q (valid: %s, %s)", cfg.Engine, EngineEvent, EngineCycle)
	}
	th := cmp.Or(cfg.MitigationThreshold, cfg.Bank.Threshold)
	mitName := cmp.Or(cfg.Mitigation, "none")
	mc, tracer, mapper, err := rowhammer.NewAttackController(cfg.Bank, mitName, th, cfg.Seed)
	if err != nil {
		return Result{}, err
	}

	budget := p.Acts()
	if cfg.MaxActivations > 0 && int64(cfg.MaxActivations) < budget {
		budget = int64(cfg.MaxActivations)
	}
	maxCycles := cmp.Or(cfg.MaxCycles, budget*4000+100_000)

	r := &runner{mc: mc, event: event, ctx: ctx}
	res := Result{Program: p.Name, Mitigation: mitName}
	p.Walk(func(s Step) bool {
		if s.IsAct {
			if cfg.MaxActivations > 0 && res.Activations >= cfg.MaxActivations {
				return false
			}
			if s.Row >= cfg.Bank.Rows {
				r.err = fmt.Errorf("payload: ACT row %d outside bank of %d rows", s.Row, cfg.Bank.Rows)
				return false
			}
			done := false
			mc.EnqueueRead(mapper.Encode(dram.Coord{Row: s.Row}), func(int64) { done = true })
			if !r.advance(func() bool { return done }, maxCycles) {
				res.Stalled = r.ctxErr == nil
				return false
			}
			res.Activations++
			return true
		}
		end := mc.Now() + int64(s.NopCycles)
		if end > maxCycles {
			// The idle span would outlive the cycle budget: burn what is
			// left and stop, like an access that never completed.
			res.NopCycles += maxCycles - mc.Now()
			r.advance(nil, maxCycles)
			res.Stalled = r.ctxErr == nil
			return false
		}
		res.NopCycles += int64(s.NopCycles)
		return r.advance(nil, end)
	})
	if r.err != nil {
		return res, r.err
	}
	// Let queued victim refreshes land before reading out the damage
	// (running out of cycles here does not mark the program stalled).
	if r.ctxErr == nil && !res.Stalled {
		r.advance(mc.Idle, maxCycles)
	}

	res.Cycles = mc.Now()
	res.PluginStats = mc.DrainPluginStats()
	res.MCStats = mc.Stats
	res.FlipsByRow = make(map[int]int)
	bank := tracer.Bank(0, 0)
	res.MitigationRefreshes = bank.MitigationRefreshes
	res.PeakRow, res.PeakDisturbance = bank.Peak()
	for _, f := range bank.Flips() {
		res.FlipsByRow[f.Row]++
		res.TotalFlips++
	}
	return res, r.ctxErr
}

// runner advances the controller clock under either engine.
type runner struct {
	mc     *memctrl.Controller
	event  bool
	ctx    context.Context
	err    error
	ctxErr error
}

// advance runs the controller until done() holds (nil done means "run to
// the limit") or Now() reaches limit. It returns false when the limit
// (with done still unmet) or a cancellation cut the advance short.
func (r *runner) advance(done func() bool, limit int64) bool {
	for r.mc.Now() < limit {
		if done != nil && done() {
			return true
		}
		// The cycle engine amortizes the cancellation check over 1024
		// ticks; the event engine can jump arbitrarily far, so it checks
		// on every event.
		if (r.event || r.mc.Now()&1023 == 0) && r.ctx.Err() != nil {
			r.ctxErr = r.ctx.Err()
			return false
		}
		if r.event {
			// Everything strictly before NextEventAt is a provable no-op
			// tick; jump to the cycle before the event and Tick onto it.
			if next := r.mc.NextEventAt(); next-1 > r.mc.Now() {
				target := minI64(next-1, limit)
				r.mc.AdvanceTo(target)
				if r.mc.Now() >= limit {
					break
				}
			}
		}
		r.mc.Tick()
	}
	if done == nil {
		return r.ctxErr == nil
	}
	return done()
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
