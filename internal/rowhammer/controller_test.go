package rowhammer_test

import (
	"context"
	"testing"

	"safeguard/internal/payload"
	"safeguard/internal/rowhammer"
)

// mcRun drives the sgattack -mc geometry (one 8192-row bank behind the
// memory controller with the activation tracer attached) through a
// double-sided payload program of acts activations.
func mcRun(t *testing.T, cfg payload.RunConfig, victim, acts int) (payload.Result, error) {
	t.Helper()
	cfg.Bank = rowhammer.Config{
		Rows: 8192, Threshold: 1000, LinesPerRow: 16,
		VulnerableCellsPerRow: 64, FlipsPerCrossing: 8, Seed: 7,
	}
	cfg.Seed = 7
	return payload.Run(context.Background(), cfg, payload.DoubleSided(victim, acts))
}

func TestMCAttackUnmitigatedFlips(t *testing.T) {
	t.Parallel()
	res, err := mcRun(t, payload.RunConfig{Mitigation: "none"}, 4000, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFlips == 0 {
		t.Fatal("unmitigated double-sided hammering above threshold produced no flips")
	}
	if acts := int(res.PluginStats["activation-tracer"]["acts"]); acts < res.Activations {
		t.Fatalf("tracer saw %d ACTs for %d program activations; every row switch should activate",
			acts, res.Activations)
	}
	if res.MCStats.VRRs != 0 {
		t.Fatalf("no mitigation attached but controller issued %d VRRs", res.MCStats.VRRs)
	}
	if res.Stalled {
		t.Fatal("unthrottled attack must not stall")
	}
}

func TestMCAttackBlockHammerStalls(t *testing.T) {
	t.Parallel()
	res, err := mcRun(t, payload.RunConfig{Mitigation: "blockhammer", MaxCycles: 1_500_000}, 4000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled {
		t.Fatal("BlockHammer should stall a two-row hammering attacker at the cap")
	}
	if res.TotalFlips != 0 {
		t.Fatalf("BlockHammer stalled the attacker yet %d flips landed", res.TotalFlips)
	}
	if res.PluginStats["blockhammer"]["throttled"] == 0 {
		t.Fatalf("stall without throttle events: %v", res.PluginStats)
	}
}

func TestMCAttackRejectsUnknownMitigation(t *testing.T) {
	t.Parallel()
	if _, err := mcRun(t, payload.RunConfig{Mitigation: "definitely-not-real"}, 4000, 6000); err == nil {
		t.Fatal("unknown mitigation must error")
	}
}

func TestMCAttackRejectsOutOfRangePattern(t *testing.T) {
	t.Parallel()
	if _, err := mcRun(t, payload.RunConfig{Mitigation: "none"}, 9000, 6000); err == nil {
		t.Fatal("program rows beyond the bank must error")
	}
}
