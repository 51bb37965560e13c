package payload

import (
	"context"
	"testing"

	"safeguard/internal/rowhammer"
)

// parityBank is the reduced single-bank geometry of the controller
// tests: small enough that a full mitigation sweep stays in test time,
// hot enough that every mitigation makes real decisions.
func parityBank() rowhammer.Config {
	return rowhammer.Config{
		Rows: 1024, Threshold: 300, LinesPerRow: 8,
		VulnerableCellsPerRow: 32, FlipsPerCrossing: 4, Seed: 11,
	}
}

func TestRunDefaultsAndBudget(t *testing.T) {
	t.Parallel()
	// An unprotected double-sided run must defeat the bank (flips > 0)
	// and stop exactly at the activation budget even though the program
	// unrolls further.
	prog := DoubleSided(500, 10_000)
	res, err := Run(context.Background(), RunConfig{
		Bank: parityBank(), MaxActivations: 700,
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Activations != 700 {
		t.Fatalf("budget ignored: %d activations", res.Activations)
	}
	if res.TotalFlips == 0 {
		t.Fatal("unprotected double-sided at 700 acts (threshold 300) flipped nothing")
	}
	if res.Mitigation != "none" {
		t.Fatalf("default mitigation = %q", res.Mitigation)
	}
	if res.PeakDisturbance < float64(parityBank().Threshold) {
		t.Fatalf("peak disturbance %.1f below the threshold that was crossed", res.PeakDisturbance)
	}
	if res.PeakRow != 500 {
		t.Fatalf("peak row %d, want the victim 500", res.PeakRow)
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}

// mcBank is the 8192-row bank of the sgattack -mc study.
func mcBank() rowhammer.Config {
	return rowhammer.Config{
		Rows: 8192, Threshold: 1000, LinesPerRow: 16,
		VulnerableCellsPerRow: 64, FlipsPerCrossing: 8, Seed: 7,
	}
}

func TestRunGrapheneProtects(t *testing.T) {
	t.Parallel()
	res, err := Run(context.Background(), RunConfig{
		Bank: mcBank(), Mitigation: "graphene", Seed: 7,
	}, DoubleSided(4000, 6000))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFlips != 0 {
		t.Fatalf("Graphene let %d flips through at its design threshold", res.TotalFlips)
	}
	if res.MCStats.VRRs == 0 || res.MitigationRefreshes == 0 {
		t.Fatalf("Graphene protected without issuing VRRs (VRRs=%d, refreshes=%d)",
			res.MCStats.VRRs, res.MitigationRefreshes)
	}
	if res.PluginStats["graphene"]["triggers"] == 0 {
		t.Fatalf("plugin stats missing trigger count: %v", res.PluginStats)
	}
}

func TestRunDeterministic(t *testing.T) {
	t.Parallel()
	run := func() Result {
		res, err := Run(context.Background(), RunConfig{
			Bank: mcBank(), Mitigation: "para", Seed: 7,
		}, DoubleSided(4000, 6000))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalFlips != b.TotalFlips || a.Cycles != b.Cycles || a.MCStats.VRRs != b.MCStats.VRRs {
		t.Fatalf("same seed diverged: (%d flips, %d cycles, %d VRRs) vs (%d, %d, %d)",
			a.TotalFlips, a.Cycles, a.MCStats.VRRs, b.TotalFlips, b.Cycles, b.MCStats.VRRs)
	}
}

func TestRunNopsIdleTheController(t *testing.T) {
	t.Parallel()
	// The same ACT stream with NOP padding must end later in wall-clock
	// cycles, count the padding, and still land its flips.
	base := &Program{Name: "tight", Body: []Instr{
		Loop{Count: 400, Body: []Instr{Act{Row: 499}, Act{Row: 501}}},
	}}
	padded := &Program{Name: "padded", Body: []Instr{
		Loop{Count: 400, Body: []Instr{Act{Row: 499}, Nop{Cycles: 50}, Act{Row: 501}, Nop{Cycles: 50}}},
	}}
	cfg := RunConfig{Bank: parityBank()}
	tight, err := Run(context.Background(), cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(context.Background(), cfg, padded)
	if err != nil {
		t.Fatal(err)
	}
	if slow.NopCycles != 400*100 {
		t.Fatalf("NopCycles = %d, want %d", slow.NopCycles, 400*100)
	}
	if slow.Cycles <= tight.Cycles {
		t.Fatalf("padded run (%d cycles) not slower than tight run (%d)", slow.Cycles, tight.Cycles)
	}
	if slow.TotalFlips == 0 || tight.TotalFlips == 0 {
		t.Fatalf("flips: tight %d, padded %d — both should defeat an unprotected bank", tight.TotalFlips, slow.TotalFlips)
	}
	if slow.Activations != tight.Activations {
		t.Fatalf("activations diverge: %d vs %d", slow.Activations, tight.Activations)
	}
}

func TestRunNopBudgetExhaustion(t *testing.T) {
	t.Parallel()
	// A NOP that outlives MaxCycles stalls the run at the limit.
	prog := &Program{Name: "sleepy", Body: []Instr{
		Act{Row: 500}, Nop{Cycles: MaxNop}, Act{Row: 500},
	}}
	res, err := Run(context.Background(), RunConfig{
		Bank: parityBank(), MaxCycles: 5_000,
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled {
		t.Fatal("run not marked stalled")
	}
	if res.Activations != 1 {
		t.Fatalf("activations = %d, want 1", res.Activations)
	}
	if res.Cycles != 5_000 {
		t.Fatalf("cycles = %d, want the 5000 limit", res.Cycles)
	}
}

func TestRunErrors(t *testing.T) {
	t.Parallel()
	valid := &Program{Name: "ok", Body: []Instr{Act{Row: 1}}}
	cases := map[string]struct {
		cfg  RunConfig
		prog *Program
	}{
		"invalid program": {RunConfig{Bank: parityBank()}, &Program{Name: "bad"}},
		"row outside bank": {RunConfig{Bank: parityBank()},
			&Program{Name: "far", Body: []Instr{Act{Row: 4096}}}},
		"unknown engine":     {RunConfig{Bank: parityBank(), Engine: "warp"}, valid},
		"unknown mitigation": {RunConfig{Bank: parityBank(), Mitigation: "moat"}, valid},
		"bad bank": {RunConfig{Bank: rowhammer.Config{Rows: -1, Threshold: 1, LinesPerRow: 1}},
			valid},
	}
	for name, c := range cases {
		if _, err := Run(context.Background(), c.cfg, c.prog); err == nil {
			t.Errorf("%s: Run accepted", name)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, RunConfig{Bank: parityBank()}, DoubleSided(500, 50_000))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Stalled {
		t.Fatal("cancelled run must not read as stalled")
	}
}

func TestRunBlockHammerStalls(t *testing.T) {
	t.Parallel()
	// BlockHammer throttles a double-sided hammer (every row switch is a
	// real ACT on the single-bank geometry): the budgeted run must stall
	// below its activation budget within a tight cycle cap.
	res, err := Run(context.Background(), RunConfig{
		Bank: parityBank(), Mitigation: "blockhammer", Seed: 3,
		MaxActivations: 3000, MaxCycles: 500_000,
	}, DoubleSided(500, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled {
		t.Fatal("blockhammer did not stall the hammer")
	}
	if res.Activations >= 3000 {
		t.Fatalf("throttled run completed %d activations", res.Activations)
	}
}
