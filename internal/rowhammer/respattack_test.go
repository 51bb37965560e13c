package rowhammer

import (
	"context"
	"testing"
	"time"

	"safeguard/internal/memctrl"
	"safeguard/internal/response"
)

func respCfg() ResponseAttackConfig {
	return ResponseAttackConfig{
		Bank: Config{
			Rows:                  64,
			Threshold:             16,
			LinesPerRow:           2,
			VulnerableCellsPerRow: 16,
			FlipsPerCrossing:      4,
			Seed:                  7,
		},
		Mitigation: "none",
		Seed:       7,
		Accesses:   40_000,
		Engine: response.EngineConfig{
			MaxRetries:          2,
			RetryBackoffCycles:  8,
			ScrubCorrected:      true,
			RetireThreshold:     2,
			QuarantineThreshold: 2,
		},
		VictimRows:  []int{8, 10},
		BenignEvery: 64,
		BenignTail:  16,
		SpareRows:   4,
	}
}

// TestResponseAttackFullEscalation is the tentpole acceptance test: a
// many-sided hammer against two MAC-protected victim rows escalates
// retry → scrub → row retirement → aggressor quarantine, after which the
// benign workload sees zero bad reads and bounded slowdown.
func TestResponseAttackFullEscalation(t *testing.T) {
	t.Parallel()
	cfg := respCfg()
	res, err := RunResponseAttack(context.Background(), cfg, alternate(cfg.Accesses, 7, 9, 11), "round-robin")
	if err != nil {
		t.Fatalf("RunResponseAttack: %v", err)
	}

	if !res.Quarantined {
		t.Fatalf("attack was not quarantined: %+v", res.EngineStats)
	}
	if res.AttackerAccesses >= cfg.Accesses {
		t.Errorf("attacker ran out its full budget (%d) — quarantine never throttled it", res.AttackerAccesses)
	}
	if len(res.RetiredRows) < 2 {
		t.Fatalf("retired rows = %v, want both victim rows", res.RetiredRows)
	}
	for _, r := range res.RetiredRows {
		if r != 8 && r != 10 {
			t.Errorf("retired unexpected row %d", r)
		}
	}
	for _, want := range []int{7, 9, 11} {
		found := false
		for _, g := range res.GatedRows {
			if g == want {
				found = true
			}
		}
		if !found {
			t.Errorf("aggressor row %d not gated; gated = %v", want, res.GatedRows)
		}
	}

	// The escalation sequence: retries precede the first retirement,
	// scrubs happen (retirement re-creates the row from the clean copy),
	// and quarantine is the final step.
	first := map[response.StepKind]int{}
	for i, s := range res.Steps {
		if _, ok := first[s.Kind]; !ok {
			first[s.Kind] = i
		}
	}
	for _, k := range []response.StepKind{response.StepRetry, response.StepScrub, response.StepRetire, response.StepQuarantine} {
		if _, ok := first[k]; !ok {
			t.Fatalf("escalation trace missing %v steps: %v", k, res.Steps)
		}
	}
	if !(first[response.StepRetry] < first[response.StepRetire] && first[response.StepRetire] < first[response.StepQuarantine]) {
		t.Errorf("escalation out of order: first retry@%d retire@%d quarantine@%d",
			first[response.StepRetry], first[response.StepRetire], first[response.StepQuarantine])
	}
	// Quarantine fires exactly once, at the final retirement (the
	// post-retire scrub that re-creates the row may trail it).
	quarantines := 0
	for _, s := range res.Steps {
		if s.Kind == response.StepQuarantine {
			quarantines++
		}
	}
	if quarantines != 1 {
		t.Errorf("quarantine steps = %d, want exactly 1", quarantines)
	}

	if res.EngineStats.Retries == 0 || res.EngineStats.HardDUEs == 0 {
		t.Errorf("expected failed retries feeding escalation, got %+v", res.EngineStats)
	}
	if res.EngineStats.Scrubs == 0 {
		t.Errorf("expected scrubs, got %+v", res.EngineStats)
	}
	if res.MemStats.RowsRetired != 2 {
		t.Errorf("MemStats.RowsRetired = %d, want 2", res.MemStats.RowsRetired)
	}
	if res.MCStats.RowsRetired != 2 {
		t.Errorf("MCStats.RowsRetired = %d, want 2 (controller remap mirrors memsys)", res.MCStats.RowsRetired)
	}
	if res.MCStats.RemapHits == 0 {
		t.Errorf("no remapped accesses recorded — retired rows never redirected to spares")
	}

	// The loop is closed: once the aggressors are gated and the victims
	// remapped, the benign workload consumes zero corrupted lines.
	if res.BadReadsDuringAttack == 0 {
		t.Errorf("attack never produced a benign-visible DUE — escalation untested")
	}
	if res.BadReadsAfterQuarantine != 0 {
		t.Errorf("benign reads still bad after quarantine: %d", res.BadReadsAfterQuarantine)
	}

	// Benign slowdown stays bounded: the tail pays at most the remap
	// penalty and row-miss costs, not attacker-induced stalling.
	if res.BenignAvgLatencyAttack <= 0 || res.BenignAvgLatencyTail <= 0 {
		t.Fatalf("benign latencies not measured: attack=%v tail=%v",
			res.BenignAvgLatencyAttack, res.BenignAvgLatencyTail)
	}
	bound := res.BenignAvgLatencyAttack*1.5 + 4*float64(memctrl.DefaultRemapPenalty)
	if res.BenignAvgLatencyTail > bound {
		t.Errorf("benign tail latency %.1f exceeds bound %.1f (attack-phase %.1f)",
			res.BenignAvgLatencyTail, bound, res.BenignAvgLatencyAttack)
	}
}

func TestResponseAttackValidation(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	if _, err := RunResponseAttack(ctx, ResponseAttackConfig{Bank: Config{Rows: 8, Threshold: 4, LinesPerRow: 2}}, alternate(1, 1), "one-row"); err == nil {
		t.Errorf("no victim rows accepted")
	}
	cfg := respCfg()
	cfg.VictimRows = []int{999}
	if _, err := RunResponseAttack(ctx, cfg, alternate(1, 1), "one-row"); err == nil {
		t.Errorf("out-of-range victim row accepted")
	}
	cfg = respCfg()
	cfg.Mitigation = "no-such-defense"
	if _, err := RunResponseAttack(ctx, cfg, alternate(1, 1), "one-row"); err == nil {
		t.Errorf("unknown mitigation accepted")
	}
}

func TestResponseAttackCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := respCfg()
	start := time.Now()
	res, err := RunResponseAttack(ctx, cfg, alternate(cfg.Accesses, 7, 9, 11), "round-robin")
	if err == nil {
		t.Fatalf("cancelled run returned nil error")
	}
	if res == nil {
		t.Fatalf("cancelled run returned nil partial result")
	}
	if res.AttackerAccesses != 0 {
		t.Errorf("pre-cancelled run completed %d accesses", res.AttackerAccesses)
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("cancellation took %v", time.Since(start))
	}
}
