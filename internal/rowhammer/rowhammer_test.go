package rowhammer

import (
	"testing"

	"safeguard/internal/bits"
	"safeguard/internal/ecc"
	"safeguard/internal/mac"
	"safeguard/internal/memctrl"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Rows = 4096
	cfg.Seed = 7
	return cfg
}

// mitigation builds a registry mitigation plugin (nil for "none").
func mitigation(t *testing.T, name string, threshold int, seed uint64) memctrl.Plugin {
	t.Helper()
	p, err := memctrl.NewMitigationPlugin(name, threshold, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testKeyed() *mac.Keyed {
	var key [16]byte
	for i := range key {
		key[i] = byte(0x40 + i)
	}
	return mac.NewKeyed(key)
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
	p := &DoubleSided{Victim: 200}
	acts := 0
	for len(b.FlipsInRow(200)) == 0 && acts < 2*cfg.Threshold {
		b.Activate(p.Next())
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
	res := RunAttack(b, nil, &distanceTwoOnly{victim: 600}, 1)
	if got := res.FlipsByRow[600]; got != 0 {
		t.Fatalf("pure distance-2 hammering flipped %d bits", got)
	}
}

// distanceTwoOnly hammers only V±2 (no near rows at all, no mitigation to
// convert far hammering into near refreshes).
type distanceTwoOnly struct {
	victim int
	step   int
}

func (p *distanceTwoOnly) Name() string { return "distance-2-only" }
func (p *distanceTwoOnly) Next() int {
	p.step++
	if p.step%2 == 0 {
		return p.victim - 2
	}
	return p.victim + 2
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

// ---------------------------------------------------------------------------
// Mitigations vs attack patterns
// ---------------------------------------------------------------------------

func TestPARAStopsClassicHammering(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	b := NewBank(cfg)
	mit := mitigation(t, "para", cfg.Threshold, 1)
	res := RunAttack(b, mit, &DoubleSided{Victim: 1000}, 1)
	if res.FlipsByRow[1000] != 0 {
		t.Fatalf("PARA failed against double-sided: %v", res)
	}
}

func TestGrapheneStopsClassicHammering(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	b := NewBank(cfg)
	mit := mitigation(t, "graphene", cfg.Threshold, 0)
	res := RunAttack(b, mit, &DoubleSided{Victim: 1000}, 1)
	if res.FlipsByRow[1000] != 0 {
		t.Fatalf("Graphene failed against double-sided: %v", res)
	}
}

func TestTRRStopsClassicDoubleSided(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	b := NewBank(cfg)
	mit := mitigation(t, "trr", cfg.Threshold, 0)
	res := RunAttack(b, mit, &DoubleSided{Victim: 1000}, 1)
	if res.FlipsByRow[1000] != 0 {
		t.Fatalf("TRR failed against plain double-sided: %v", res)
	}
}

func TestTRRespassBreaksTRR(t *testing.T) {
	t.Parallel()
	// Case-2 of Section II-E: dummy rows evict the true aggressors from
	// TRR's small sampler, so the victim's neighbours never get refreshed.
	cfg := testConfig()
	b := NewBank(cfg)
	mit := mitigation(t, "trr", cfg.Threshold, 0)
	p := &ManySided{Victim: 1200, Dummies: 12, DummyBase: 2000}
	res := RunAttack(b, mit, p, 1)
	if res.FlipsByRow[1200] == 0 {
		t.Fatalf("TRRespass failed to break TRR: %v", res)
	}
}

func TestGrapheneStopsTRRespass(t *testing.T) {
	t.Parallel()
	// Misra–Gries counting is immune to capacity eviction.
	cfg := testConfig()
	b := NewBank(cfg)
	mit := mitigation(t, "graphene", cfg.Threshold, 0)
	p := &ManySided{Victim: 1200, Dummies: 12, DummyBase: 2000}
	res := RunAttack(b, mit, p, 1)
	if res.FlipsByRow[1200] != 0 {
		t.Fatalf("TRRespass should not break Graphene: %v", res)
	}
}

func TestHalfDoubleBreaksPreciseMitigations(t *testing.T) {
	t.Parallel()
	// Case-1 of Section II-E / Figure 1b: the mitigation's own distance-1
	// refreshes of the middle rows hammer the victim at distance 2 from
	// the attacker's aggressors. As in the real attack, the pattern is
	// calibrated per mitigation: against PARA the middle rows are never
	// touched directly (a direct hit risks a PARA refresh of the victim
	// itself); against Graphene a light direct middle-row dose below the
	// tracker's trigger supplements the scarcer counter-based refreshes;
	// against TRR the REF-rate refreshes alone overwhelm the victim.
	cfg := testConfig()
	cases := []struct {
		mit       string
		seed      uint64
		nearEvery int
	}{
		{"para", 2, 0},
		{"graphene", 0, 680},
		{"trr", 0, 1130},
	}
	for _, tc := range cases {
		b := NewBank(cfg)
		mit := mitigation(t, tc.mit, cfg.Threshold, tc.seed)
		p := &HalfDouble{Victim: 1500, NearEvery: tc.nearEvery}
		// Figure 1b reports flip distance from the *aggressor*: the
		// victim sits two rows from the hammered far row 1502.
		res := RunAttackAround(b, mit, p, 1, 1502)
		if res.FlipsByRow[1500] == 0 {
			t.Errorf("half-double failed against %s: %v", mit.Name(), res)
			continue
		}
		if res.FlipsByDistance[2] == 0 {
			t.Errorf("%s: no distance-2 flips recorded: %v", mit.Name(), res.FlipsByDistance)
		}
	}
}

func TestHalfDoubleNeedsMitigation(t *testing.T) {
	t.Parallel()
	// The irony at the heart of Half-Double: without any mitigation the
	// same pattern's near-row hits are far too few and distance-2
	// coupling too weak.
	cfg := testConfig()
	b := NewBank(cfg)
	p := &HalfDouble{Victim: 1500, NearEvery: 1024}
	res := RunAttack(b, nil, p, 1)
	if res.FlipsByRow[1500] != 0 {
		t.Fatalf("half-double without mitigation should not flip the distance-2 victim: %v", res)
	}
}

// ---------------------------------------------------------------------------
// Detection: the SafeGuard story end to end
// ---------------------------------------------------------------------------

func TestSafeGuardDetectsBreakthroughFlips(t *testing.T) {
	t.Parallel()
	// Run TRRespass against TRR (mitigation broken, flips land), then
	// check every damaged line under SECDED vs SafeGuard. SafeGuard must
	// have zero silent lines.
	cfg := testConfig()
	b := NewBank(cfg)
	res := RunAttack(b, mitigation(t, "trr", cfg.Threshold, 0), &ManySided{Victim: 1200, Dummies: 12, DummyBase: 2000}, 2)
	if !res.Broke() {
		t.Fatal("attack setup failed to produce flips")
	}
	sg := EvaluateDetection(b, ecc.NewSafeGuardSECDED(testKeyed()))
	if sg.Silent != 0 {
		t.Fatalf("SafeGuard leaked %d silent lines", sg.Silent)
	}
	if sg.Detected+sg.Corrected != sg.LinesAttacked {
		t.Fatalf("outcome accounting broken: %+v", sg)
	}
	sgck := EvaluateDetection(b, ecc.NewSafeGuardChipkill(testKeyed()))
	if sgck.Silent != 0 {
		t.Fatalf("SafeGuard-Chipkill leaked %d silent lines", sgck.Silent)
	}
}

func TestSECDEDCanBeSilentlyCorrupted(t *testing.T) {
	t.Parallel()
	// Keep hammering so victims accumulate many flips per line; word
	// SECDED then miscorrects some lines silently — the security risk.
	cfg := testConfig()
	// Concentrate the damage: few lines per row with many weak cells so
	// individual words accumulate multiple flips.
	cfg.LinesPerRow = 4
	cfg.VulnerableCellsPerRow = 256
	cfg.FlipsPerCrossing = 32
	b := NewBank(cfg)
	RunAttack(b, mitigation(t, "trr", cfg.Threshold, 0), &ManySided{Victim: 1200, Dummies: 12, DummyBase: 2000}, 4)
	out := EvaluateDetection(b, ecc.NewSECDED())
	t.Logf("SECDED under breakthrough attack: %+v", out)
	if out.LinesAttacked == 0 {
		t.Fatal("no attacked lines")
	}
	if out.Silent == 0 && out.Detected == 0 {
		t.Fatal("attack produced neither silent nor detected lines — model inert")
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
