package rowhammer

import (
	"context"
	"testing"

	"safeguard/internal/telemetry"
)

// runTracedAttack runs the quick response-attack configuration with
// telemetry attached and returns the full event stream and snapshot.
func runTracedAttack(t *testing.T) ([]telemetry.Event, telemetry.Snapshot, *ResponseAttackResult) {
	t.Helper()
	cfg := respCfg()
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Trace = telemetry.NewTracer(1 << 18)
	res, err := RunResponseAttack(context.Background(), cfg, alternate(cfg.Accesses, 7, 9), "double-sided(8)")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Trace.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events; raise capacity", cfg.Trace.Dropped())
	}
	return cfg.Trace.Events(), cfg.Telemetry.Snapshot(), res
}

// The event stream of a traced response attack is deterministic, internally
// ordered, and agrees with the engine's own escalation record: the
// RESPONSE/QUARANTINE subsequence must match res.Steps one-to-one.
func TestResponseAttackTraceMatchesSteps(t *testing.T) {
	t.Parallel()
	events, snap, res := runTracedAttack(t)
	if len(events) == 0 {
		t.Fatal("no events traced")
	}
	if !res.Quarantined {
		t.Fatal("quick configuration should escalate to quarantine")
	}

	// Cycle stamps never go backwards within a clock domain. The controller
	// and memsys share mc.Now; the engine's escalation steps carry its own
	// logical backoff clock (response.Step.Cycle), so they are checked
	// separately.
	var lastMC, lastEng int64 = -1, -1
	for i, ev := range events {
		last := &lastMC
		if ev.Kind == telemetry.EvResponseStep || ev.Kind == telemetry.EvQuarantine {
			last = &lastEng
		}
		if ev.Cycle < *last {
			t.Fatalf("event %d cycle %d < previous %d in its domain (%s)", i, ev.Cycle, *last, ev)
		}
		*last = ev.Cycle
	}

	// Extract the escalation subsequence and replay it against res.Steps.
	var steps []telemetry.Event
	for _, ev := range events {
		if ev.Kind == telemetry.EvResponseStep || ev.Kind == telemetry.EvQuarantine {
			steps = append(steps, ev)
		}
	}
	if len(steps) != len(res.Steps) {
		t.Fatalf("trace has %d escalation events, engine recorded %d steps", len(steps), len(res.Steps))
	}
	for i, st := range res.Steps {
		ev := steps[i]
		if ev.Kind == telemetry.EvQuarantine {
			if st.Kind.String() != "quarantine" {
				t.Fatalf("step %d: trace says quarantine, engine says %s", i, st.Kind)
			}
			continue
		}
		if int64(st.Kind) != ev.Arg {
			t.Errorf("step %d: trace kind %d, engine kind %d (%s)", i, ev.Arg, int64(st.Kind), st.Kind)
		}
		if st.Addr != ev.Addr || st.Row != ev.Row {
			t.Errorf("step %d: trace addr=%#x row=%d, engine addr=%#x row=%d",
				i, ev.Addr, ev.Row, st.Addr, st.Row)
		}
	}

	// Every controller-level retirement in the trace names a row the result
	// reports as retired.
	retired := map[int]bool{}
	for _, r := range res.RetiredRows {
		retired[r] = true
	}
	for _, ev := range events {
		if ev.Kind == telemetry.EvRetire && ev.Arg == 1 && !retired[ev.Row] {
			t.Errorf("trace retires row %d, result reports %v", ev.Row, res.RetiredRows)
		}
	}

	// The registry cross-checks the stream: counted commands >= traced
	// commands of each kind (the counters and the tracer hook the same
	// dispatch), and the quarantine counter matches.
	kindCounts := map[telemetry.EventKind]uint64{}
	for _, ev := range events {
		kindCounts[ev.Kind]++
	}
	for kind, counter := range map[telemetry.EventKind]string{
		telemetry.EvACT:        "memctrl.cmd.ACT",
		telemetry.EvRD:         "memctrl.cmd.RD",
		telemetry.EvWR:         "memctrl.cmd.WR",
		telemetry.EvVRR:        "memctrl.cmd.VRR",
		telemetry.EvQuarantine: "response.quarantines",
	} {
		if snap.Counters[counter] != kindCounts[kind] {
			t.Errorf("%s = %d but trace has %d %s events",
				counter, snap.Counters[counter], kindCounts[kind], kind)
		}
	}
}

// Two identical traced runs produce bit-identical event streams and
// snapshots — the acceptance contract behind sgattack -trace/-stats.
func TestResponseAttackTraceDeterminism(t *testing.T) {
	t.Parallel()
	ev1, snap1, res1 := runTracedAttack(t)
	ev2, snap2, res2 := runTracedAttack(t)
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("event %d differs:\n  run1 %s\n  run2 %s", i, ev1[i], ev2[i])
		}
	}
	if !snap1.Equal(snap2) {
		t.Fatal("snapshots differ between identical runs")
	}
	if res1.AttackerAccesses != res2.AttackerAccesses || res1.Cycles != res2.Cycles {
		t.Fatalf("results differ: %d/%d accesses, %d/%d cycles",
			res1.AttackerAccesses, res2.AttackerAccesses, res1.Cycles, res2.Cycles)
	}
}

// The attached trace analysis reconstructs the run: the aggressor rows
// top the activation leaderboard, and the DUE incidents carry the
// detection and escalation stamps the engine recorded.
func TestResponseAttackAnalysisIncidents(t *testing.T) {
	t.Parallel()
	_, _, res := runTracedAttack(t)
	a := res.Analysis
	if a == nil {
		t.Fatal("traced run produced no Analysis")
	}
	if a.Events == 0 || a.Dropped != 0 || len(a.Banks) == 0 {
		t.Fatalf("analysis header: %+v", a)
	}
	if len(a.Leaderboard) == 0 {
		t.Fatal("no leaderboard")
	}
	// DoubleSided{Victim: 8} hammers rows 7 and 9.
	if top := a.Leaderboard[0].Row; top != 7 && top != 9 {
		t.Fatalf("leaderboard top row = %d, want an aggressor (7 or 9)", top)
	}
	if len(a.Incidents) == 0 {
		t.Fatal("quarantining run produced no incidents")
	}
	var sawRetry, sawQuarantine bool
	for _, in := range a.Incidents {
		if in.DetectCycle <= 0 || in.LastCycle < in.DetectCycle {
			t.Fatalf("incident stamps out of order: %+v", in)
		}
		if in.Retries > 0 {
			sawRetry = true
		}
		if in.QuarantineCycle != 0 {
			sawQuarantine = true
		}
	}
	if !sawRetry {
		t.Fatal("no incident recorded a retry")
	}
	if !sawQuarantine && res.Quarantined {
		t.Fatal("engine quarantined but no incident carries the stamp")
	}
}
