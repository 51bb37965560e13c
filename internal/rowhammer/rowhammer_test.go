package rowhammer

import (
	"iter"
	"testing"

	"safeguard/internal/bits"
	"safeguard/internal/memctrl"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Rows = 4096
	cfg.Seed = 7
	return cfg
}

func TestGoldenLineDeterministicAndDistinct(t *testing.T) {
	t.Parallel()
	b := NewBank(testConfig())
	if b.GoldenLine(5, 9) != b.GoldenLine(5, 9) {
		t.Fatal("golden line not deterministic")
	}
	if b.GoldenLine(5, 9) == b.GoldenLine(5, 10) || b.GoldenLine(5, 9) == b.GoldenLine(6, 9) {
		t.Fatal("golden lines should differ across rows/lines")
	}
}

func TestWriteReadLine(t *testing.T) {
	t.Parallel()
	b := NewBank(testConfig())
	var l bits.Line
	l = l.WithWord(0, 0x1234)
	b.WriteLine(3, 4, l)
	if b.ReadLine(3, 4) != l {
		t.Fatal("write/read mismatch")
	}
	if b.ReadLine(3, 5) != b.GoldenLine(3, 5) {
		t.Fatal("unwritten lines must return golden content")
	}
}

func TestHammeringBelowThresholdNoFlips(t *testing.T) {
	t.Parallel()
	b := NewBank(testConfig())
	agg := 100
	for i := 0; i < b.cfg.Threshold-1; i++ {
		b.Activate(agg)
	}
	if len(b.Flips()) != 0 {
		t.Fatalf("flips below threshold: %d", len(b.Flips()))
	}
}

func TestSingleSidedHammerFlipsNeighbours(t *testing.T) {
	t.Parallel()
	// Figure 2: hammering an aggressor past the threshold flips bits in
	// the adjacent victim rows.
	b := NewBank(testConfig())
	agg := 100
	for i := 0; i < b.cfg.Threshold+10; i++ {
		b.Activate(agg)
	}
	flips := b.Flips()
	if len(flips) == 0 {
		t.Fatal("no flips at threshold")
	}
	for _, f := range flips {
		if f.Row != agg-1 && f.Row != agg+1 {
			t.Fatalf("flip at distance %d, expected immediate neighbours", f.Row-agg)
		}
	}
}

func TestDoubleSidedTwiceAsFast(t *testing.T) {
	t.Parallel()
	// Double-sided hammering needs ~half the per-aggressor activations.
	cfg := testConfig()
	b := NewBank(cfg)
	acts := 0
	for row := range alternate(2*cfg.Threshold, 199, 201) {
		if len(b.FlipsInRow(200)) != 0 {
			break
		}
		b.Activate(row)
		acts++
	}
	if len(b.FlipsInRow(200)) == 0 {
		t.Fatal("double-sided hammering produced no flips")
	}
	if acts > cfg.Threshold+2 {
		t.Fatalf("double-sided needed %d acts, expected ~threshold (%d)", acts, cfg.Threshold)
	}
}

func TestVictimAccessResetsDisturbance(t *testing.T) {
	t.Parallel()
	// Accessing (activating) the victim replenishes its charge: the
	// attack only works on untouched victims (Section II-C).
	b := NewBank(testConfig())
	agg, victim := 300, 301
	for i := 0; i < b.cfg.Threshold-10; i++ {
		b.Activate(agg)
	}
	b.Activate(victim) // victim accessed: charge restored
	for i := 0; i < b.cfg.Threshold-10; i++ {
		b.Activate(agg)
	}
	if len(b.FlipsInRow(victim)) != 0 {
		t.Fatal("victim flipped despite intermediate access")
	}
}

func TestRefreshWindowResetsDisturbance(t *testing.T) {
	t.Parallel()
	b := NewBank(testConfig())
	agg := 400
	for i := 0; i < b.cfg.Threshold-10; i++ {
		b.Activate(agg)
	}
	b.RefreshWindow()
	for i := 0; i < b.cfg.Threshold-10; i++ {
		b.Activate(agg)
	}
	if len(b.Flips()) != 0 {
		t.Fatal("disturbance must not survive a refresh window")
	}
}

func TestFlipsPersistAcrossRefresh(t *testing.T) {
	t.Parallel()
	b := NewBank(testConfig())
	agg := 500
	for i := 0; i < b.cfg.Threshold+10; i++ {
		b.Activate(agg)
	}
	n := len(b.Flips())
	if n == 0 {
		t.Fatal("no flips")
	}
	victim := b.Flips()[0].Row
	line := b.Flips()[0].Line
	damaged := b.ReadLine(victim, line)
	b.RefreshWindow()
	if b.ReadLine(victim, line) != damaged {
		t.Fatal("refresh must reinforce the corrupted value, not repair it")
	}
}

func TestDirectDistanceTwoInfeasible(t *testing.T) {
	t.Parallel()
	// With Weight2 = Weight1/512, a full window of pure distance-2
	// hammering at the LPDDR4-new threshold cannot flip bits.
	cfg := testConfig()
	b := NewBank(cfg)
	res := RunAttack(b, nil, alternate(memctrl.ActsPerWindow, 602, 598), "distance-2-only")
	if got := res.FlipsByRow[600]; got != 0 {
		t.Fatalf("pure distance-2 hammering flipped %d bits", got)
	}
}

// alternate yields n activations cycling through rows: the package's
// tests build their streams locally, because the payload library
// imports this package.
func alternate(n int, rows ...int) iter.Seq[int] {
	return func(yield func(int) bool) {
		for i := 0; i < n; i++ {
			if !yield(rows[i%len(rows)]) {
				return
			}
		}
	}
}

func TestDataDependence(t *testing.T) {
	t.Parallel()
	// Only charged (1) cells flip: a victim row of all zeros cannot flip.
	cfg := testConfig()
	b := NewBank(cfg)
	victim := 700
	for line := 0; line < cfg.LinesPerRow; line++ {
		b.WriteLine(victim, line, bits.Line{})
	}
	for i := 0; i < 3*cfg.Threshold; i++ {
		b.Activate(victim - 1)
		b.Activate(victim + 1)
	}
	if len(b.FlipsInRow(victim)) != 0 {
		t.Fatal("all-zero victim row flipped — data dependence broken")
	}
}

func TestContinuedHammeringFlipsMore(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	b1 := NewBank(cfg)
	for i := 0; i < cfg.Threshold+5; i++ {
		b1.Activate(800)
	}
	few := len(b1.Flips())
	b2 := NewBank(cfg)
	for i := 0; i < 4*cfg.Threshold; i++ {
		b2.Activate(800)
	}
	many := len(b2.Flips())
	if many <= few {
		t.Fatalf("continued hammering should flip more bits (%d vs %d)", many, few)
	}
}

func TestThresholdHistoryTable(t *testing.T) {
	t.Parallel()
	// Table I: pinned values and the ~30x fall from 2014 to 2020.
	if len(ThresholdHistory) != 6 {
		t.Fatalf("Table I has 6 rows, got %d", len(ThresholdHistory))
	}
	first, last := ThresholdHistory[0], ThresholdHistory[5]
	if first.Threshold != 139_000 || last.Threshold != 4_800 {
		t.Fatalf("endpoint thresholds wrong: %v %v", first, last)
	}
	ratio := float64(first.Threshold) / float64(last.Threshold)
	if ratio < 28 || ratio > 30 {
		t.Fatalf("threshold reduction %.1fx, paper says ~30x", ratio)
	}
}

func TestBadConfigPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBank(Config{})
}
