package rowhammer_test

import (
	"testing"

	"safeguard/internal/memctrl"
	"safeguard/internal/rowhammer"
)

// TestActivationTracerDisturbance drives the tracer directly: activations
// disturb, VRRs heal, REFs advance the window clock.
func TestActivationTracerDisturbance(t *testing.T) {
	t.Parallel()
	cfg := rowhammer.DefaultConfig()
	cfg.Rows = 64
	cfg.Threshold = 100
	cfg.Seed = 5
	tr := rowhammer.NewActivationTracer(cfg)
	for i := 0; i < 2*cfg.Threshold; i++ {
		tr.OnCommand(memctrl.CmdACT, 0, 0, 10, int64(i))
		tr.OnCommand(memctrl.CmdACT, 0, 0, 12, int64(i))
	}
	if len(tr.Flips()) == 0 {
		t.Fatal("double-sided activations past threshold flipped nothing in the tracer's bank")
	}
	s := tr.DrainStats()
	if s["acts"] != float64(4*cfg.Threshold) {
		t.Fatalf("tracer counted %v acts, want %d", s["acts"], 4*cfg.Threshold)
	}
	if again := tr.DrainStats(); again["acts"] != 0 {
		t.Fatalf("DrainStats must return deltas; second drain saw %v acts", again["acts"])
	}
}

// TestActivationTracerVRRHeals shows a VRR between activation bursts
// resets the victim's disturbance, exactly like Bank.RefreshRow. The
// outer rows 9 and 13 still flip — a VRR on the middle victim cannot
// protect them — so the assertion is scoped to row 11.
func TestActivationTracerVRRHeals(t *testing.T) {
	t.Parallel()
	cfg := rowhammer.DefaultConfig()
	cfg.Rows = 64
	cfg.Threshold = 100
	cfg.Seed = 5
	tr := rowhammer.NewActivationTracer(cfg)
	for i := 0; i < cfg.Threshold; i++ {
		tr.OnCommand(memctrl.CmdACT, 0, 0, 10, int64(i))
		tr.OnCommand(memctrl.CmdACT, 0, 0, 12, int64(i))
		// Each iteration disturbs the victim twice (both neighbours), so
		// refresh well before 2*20 reaches the threshold of 100.
		if i%20 == 19 {
			tr.OnCommand(memctrl.CmdVRR, 0, 0, 11, int64(i))
		}
	}
	for _, f := range tr.Flips() {
		if f.Row == 11 {
			t.Fatalf("the VRR-protected victim row flipped: %+v", f)
		}
	}
	if len(tr.Bank(0, 0).FlipsInRow(9)) == 0 {
		t.Fatal("outer row 9 should flip (no VRR covers it); the model went inert")
	}
}
