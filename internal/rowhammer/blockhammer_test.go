package rowhammer

import (
	"testing"

	"safeguard/internal/memctrl"
)

func TestBlockHammerStopsEveryAttackPattern(t *testing.T) {
	t.Parallel()
	// Correctly sized BlockHammer caps every row under the RH-Threshold,
	// so even the breakthrough patterns cannot flip bits.
	cfg := testConfig()
	patterns := []Pattern{
		&DoubleSided{Victim: 1000},
		&ManySided{Victim: 1200, Dummies: 12, DummyBase: 2000},
		&HalfDouble{Victim: 1500, NearEvery: 1130},
	}
	for _, p := range patterns {
		b := NewBank(cfg)
		res := RunAttack(b, mitigation(t, "blockhammer", cfg.Threshold, 0), p, 1)
		if res.TotalFlips != 0 {
			t.Fatalf("%s: BlockHammer let %d flips through", p.Name(), res.TotalFlips)
		}
		if res.Throttled == 0 {
			t.Fatalf("%s: attack was never throttled", p.Name())
		}
	}
}

func TestBlockHammerThresholdDependence(t *testing.T) {
	t.Parallel()
	// The paper's critique: a mitigation sized for one RH-Threshold fails
	// on a module with a lower one. BlockHammer designed for 10K faces an
	// LPDDR4-new module at 4.8K: the cap (4999 acts/row) sums to ~2x the
	// real threshold under double-sided hammering, so hammering succeeds.
	cfg := testConfig() // threshold 4800
	b := NewBank(cfg)
	res := RunAttack(b, mitigation(t, "blockhammer", 10_000, 0), &DoubleSided{Victim: 1000}, 1)
	if res.FlipsByRow[1000] == 0 {
		t.Fatal("under-provisioned BlockHammer should have been broken")
	}
}

func TestBlockHammerThrottlesBenignHotRows(t *testing.T) {
	t.Parallel()
	// The paper's other critique: a legitimately hot row (think hot B-tree
	// root) gets its activations beyond the cap delayed — severe added
	// latency for benign traffic.
	cfg := testConfig()
	b := NewBank(cfg)
	res := RunAttack(b, mitigation(t, "blockhammer", cfg.Threshold, 0), &SingleSided{Aggressor: 2222}, 1)
	frac := float64(res.Throttled) / memctrl.ActsPerWindow
	if frac < 0.9 {
		t.Fatalf("hot-row throttle fraction %.2f; nearly all accesses beyond the cap must stall", frac)
	}
}

func TestBlockHammerNeverRefreshes(t *testing.T) {
	t.Parallel()
	// BlockHammer's defense is rate-limiting, not refreshing — so it is
	// immune to the Half-Double refresh-weaponization by construction.
	cfg := testConfig()
	b := NewBank(cfg)
	RunAttack(b, mitigation(t, "blockhammer", cfg.Threshold, 0), &HalfDouble{Victim: 1500}, 1)
	if b.MitigationRefreshes != 0 {
		t.Fatalf("BlockHammer issued %d refreshes", b.MitigationRefreshes)
	}
}
