package safeguard_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"safeguard"
)

func demoKey() [16]byte {
	var key [16]byte
	for i := range key {
		key[i] = byte(i * 7)
	}
	return key
}

func randLine(r *rand.Rand) safeguard.Line {
	var l safeguard.Line
	for w := range l {
		l[w] = r.Uint64()
	}
	return l
}

func TestPublicQuickstartFlow(t *testing.T) {
	keyed := safeguard.NewMAC(demoKey())
	codec := safeguard.NewSafeGuardSECDED(keyed)
	r := rand.New(rand.NewPCG(1, 1))
	line := randLine(r)
	const addr = 0x1000
	meta := codec.Encode(line, addr)

	// Clean read.
	if res := codec.Decode(line, meta, addr); res.Status != safeguard.OK || res.Line != line {
		t.Fatalf("clean read: %+v", res.Status)
	}
	// Natural single-bit error: corrected.
	if res := codec.Decode(line.FlipBit(99), meta, addr); res.Status != safeguard.Corrected || res.Line != line {
		t.Fatalf("single-bit: %v", res.Status)
	}
	// Row-Hammer multi-bit damage: detected, never delivered.
	bad := line.FlipBit(1).FlipBit(77).FlipBit(300).FlipBit(444)
	if res := codec.Decode(bad, meta, addr); res.Status != safeguard.DUE {
		t.Fatalf("RH pattern: %v", res.Status)
	}
}

func TestPublicAttackDetectionFlow(t *testing.T) {
	cfg := safeguard.DefaultRHConfig()
	cfg.Rows = 4096
	cfg.Seed = 11
	bank := safeguard.NewBank(cfg)
	// TRRespass pattern breaks TRR...
	trr, err := safeguard.NewMitigationPlugin("trr", cfg.Threshold, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := safeguard.RunAttack(bank, trr, &attackManySided{victim: 1200}, 1)
	if !res.Broke() {
		t.Fatal("attack should break TRR")
	}
	// ...and SafeGuard detects every damaged line.
	out := safeguard.EvaluateDetection(bank, safeguard.NewSafeGuardSECDED(safeguard.NewMAC(demoKey())))
	if out.Silent != 0 {
		t.Fatalf("silent lines: %d", out.Silent)
	}
}

// attackManySided adapts the internal TRRespass pattern via the public
// interface to demonstrate custom patterns compile against it.
type attackManySided struct {
	victim int
	step   int
}

func (p *attackManySided) Name() string { return "custom-many-sided" }
func (p *attackManySided) Next() int {
	const dummies = 12
	cycle := 2 + 2*dummies
	i := p.step % cycle
	p.step++
	switch {
	case i == 0:
		return p.victim - 1
	case i == dummies+1:
		return p.victim + 1
	case i <= dummies:
		return 3000 + 8*(i-1)
	default:
		return 3000 + 8*(i-dummies-2)
	}
}

func TestPublicReliabilityAndAnalysis(t *testing.T) {
	secded, iter, eager := safeguard.Section7EBounds()
	if secded < 1000 || iter > 1 || eager < 5 {
		t.Fatalf("bounds: %v %v %v", secded, iter, eager)
	}
	rows := safeguard.StorageOverheadTable(16, 64, 256)
	if rows[0].SGXSynergyLossGB != 2 || rows[2].SafeGuardUsableGB != 256 {
		t.Fatalf("Table V: %+v", rows)
	}
	if len(safeguard.RHThresholdHistory) != 6 {
		t.Fatal("Table I size")
	}
	if got := safeguard.FITRates; got == nil {
		t.Fatal("FIT rates missing")
	}
}

func TestPublicWorkloadsAndSim(t *testing.T) {
	if len(safeguard.Workloads()) != 15 {
		t.Fatal("workload list")
	}
	w, err := safeguard.WorkloadByName("leela")
	if err != nil {
		t.Fatal(err)
	}
	cfg := safeguard.DefaultSimConfig()
	cfg.Workload = w
	cfg.WarmupInstr = 30_000
	cfg.InstrPerCore = 30_000
	cfg.Scheme = safeguard.SchemeSafeGuard
	res, err := safeguard.NewSimSystem(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.HarmonicMeanIPC() <= 0 {
		t.Fatal("no IPC")
	}
}

// ExampleMAC demonstrates address-keyed MAC computation.
func ExampleMAC() {
	keyed := safeguard.NewMAC([16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	var line safeguard.Line
	line = line.WithWord(0, 0xDEADBEEF)
	m1 := keyed.MAC(line, 0x1000, safeguard.MACWidthSECDED)
	m2 := keyed.MAC(line, 0x2000, safeguard.MACWidthSECDED)
	fmt.Println(m1 != m2) // same data, different addresses, different MACs
	// Output: true
}

// ExampleCodec demonstrates the detection guarantee on a chipkill module.
func ExampleCodec() {
	keyed := safeguard.NewMAC([16]byte{42})
	codec := safeguard.NewSafeGuardChipkill(keyed)
	var line safeguard.Line
	line = line.WithWord(3, 0x123456789ABCDEF0)
	meta := codec.Encode(line, 64)

	// An attacker flips bits across multiple chips.
	bad := line.FlipBit(0).FlipBit(64).FlipBit(130).FlipBit(200)
	res := codec.Decode(bad, meta, 64)
	fmt.Println(res.Status)
	// Output: due
}

func TestPublicProtectedMemoryFlow(t *testing.T) {
	keyed := safeguard.NewMAC(demoKey())
	mem := safeguard.NewProtectedMemory(safeguard.NewSafeGuardSECDED(keyed))
	r := rand.New(rand.NewPCG(9, 9))
	l := randLine(r)
	mem.Write(0x40, l)
	mem.AddFault(0x40, safeguard.StuckBitFault(17, l.Bit(17)^1))
	got, res, err := mem.Read(0x40)
	if err != nil || got != l || res.Status != safeguard.Corrected {
		t.Fatalf("stuck-bit read: %v %v", res.Status, err)
	}
	mem.Corrupt(0x40, safeguard.FlipBitsFault(1, 2, 3, 4))
	if _, res, _ := mem.Read(0x40); res.Status != safeguard.DUE {
		t.Fatalf("multi-bit: %v", res.Status)
	}
}

func TestPublicECCploitAndResponse(t *testing.T) {
	cfg := safeguard.DefaultECCploitConfig()
	cfg.Bank.Seed = 3
	out := safeguard.RunECCploit(cfg, safeguard.NewSafeGuardSECDED(safeguard.NewMAC(demoKey())))
	if out.Succeeded() {
		t.Fatal("SafeGuard must not be silently corrupted")
	}
	policy, err := safeguard.NewResponsePolicy(true, 2, 100, 1000)
	if err != nil {
		t.Fatalf("NewResponsePolicy: %v", err)
	}
	var quarantined int
	for i := 0; i < 4; i++ {
		d := policy.OnDUE(safeguard.DUEEvent{
			Time: float64(i), Consumer: "victim",
			CoResident: []string{"victim", "hammertime"},
		})
		quarantined += len(d.Quarantine)
	}
	if quarantined != 1 || !policy.Quarantined("hammertime") {
		t.Fatal("aggressor not quarantined")
	}
}

func TestPublicCRCStrawman(t *testing.T) {
	c := safeguard.NewCRCDetect()
	r := rand.New(rand.NewPCG(10, 10))
	l := randLine(r)
	_ = c.Encode(l, 64)
	attacked := l.FlipBit(5)
	forged := c.RecomputeForgedMeta(attacked)
	if res := c.Decode(attacked, forged, 64); res.Status != safeguard.OK {
		t.Fatalf("forgery should pass the keyless CRC: %v", res.Status)
	}
}

func TestPublicBlockHammer(t *testing.T) {
	cfg := safeguard.DefaultRHConfig()
	cfg.Rows = 4096
	bank := safeguard.NewBank(cfg)
	bh, err := safeguard.NewMitigationPlugin("blockhammer", cfg.Threshold, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := safeguard.RunAttack(bank, bh, &safeguard.DoubleSided{Victim: 1000}, 1)
	if res.TotalFlips != 0 {
		t.Fatal("BlockHammer should stop double-sided hammering")
	}
	if res.Throttled == 0 {
		t.Fatal("BlockHammer never throttled the attack")
	}
}

func TestPublicSecureMemoryReplayContrast(t *testing.T) {
	// The deliberate trade of Section VII-C, both sides: SafeGuard's MAC
	// accepts a wholesale replayed (data, metadata) pair, while the
	// counter-tree SecureMemory rejects it — at the cost SafeGuard avoids.
	keyed := safeguard.NewMAC(demoKey())
	sm := safeguard.NewSecureMemory(64, keyed)
	r := rand.New(rand.NewPCG(12, 12))
	old := randLine(r)
	sm.Write(5, old)
	snap := sm.Capture(5)
	sm.Write(5, randLine(r))
	sm.ReplayDeep(snap)
	if _, ok := sm.Read(5); ok {
		t.Fatal("secure memory accepted a replay")
	}
}
