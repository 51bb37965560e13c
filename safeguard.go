// Package safeguard is a from-scratch reproduction of "SafeGuard: Reducing
// the Security Risk from Row-Hammer via Low-Cost Integrity Protection"
// (Fakhrzadehgan, Patt, Nair, Qureshi — HPCA 2022).
//
// SafeGuard reorganizes the ECC bits of commodity ECC DIMMs from word
// granularity to cache-line granularity, freeing enough bits for a per-line
// MAC alongside a single-error-correcting code (and column parity), so that
// arbitrary bit-flips — including Row-Hammer attacks that break through
// every deployed mitigation — are *detected* instead of silently consumed.
// Detection converts Row-Hammer from a security threat (privilege
// escalation through silent corruption) into a reliability event (a
// detected uncorrectable error the system can act on).
//
// The package exposes, through type aliases onto the internal
// implementation:
//
//   - the six protection schemes of the paper behind one Codec interface
//     (conventional SECDED and Chipkill, both SafeGuard designs, and the
//     SGX-/Synergy-style MAC organizations of Section VI);
//   - a Row-Hammer bank model with the published attack patterns
//     (double-sided, TRRespass, Half-Double) and mitigations (PARA, TRR,
//     Graphene) for end-to-end breakthrough-plus-detection studies;
//   - a FaultSim-style Monte-Carlo lifetime reliability simulator with the
//     Sridharan field fault rates (Table III);
//   - a cycle-level performance simulator of the paper's Table II system
//     (4 OoO cores, private L1s, shared LLC, one DDR4-3200 channel);
//   - the experiment harness regenerating every table and figure of the
//     paper's evaluation (see DESIGN.md for the index).
//
// # Quick start
//
//	keyed := safeguard.NewMAC([16]byte{...})
//	codec := safeguard.NewSafeGuardSECDED(keyed)
//	meta := codec.Encode(line, addr)
//	res := codec.Decode(corrupted, meta, addr)
//	switch res.Status {
//	case safeguard.OK, safeguard.Corrected: // use res.Line
//	case safeguard.DUE: // detected uncorrectable error: take action
//	}
//
// See examples/ for runnable scenarios and cmd/ for the experiment
// binaries.
package safeguard

import (
	"context"
	"iter"
	"math/rand/v2"

	"safeguard/internal/analysis"
	"safeguard/internal/bits"
	"safeguard/internal/ecc"
	"safeguard/internal/eccploit"
	"safeguard/internal/experiments"
	"safeguard/internal/faultcampaign"
	"safeguard/internal/faultmodel"
	"safeguard/internal/faultsim"
	"safeguard/internal/itree"
	"safeguard/internal/mac"
	"safeguard/internal/memctrl"
	"safeguard/internal/memsys"
	"safeguard/internal/payload"
	"safeguard/internal/response"
	"safeguard/internal/rowhammer"
	"safeguard/internal/sim"
	"safeguard/internal/workload"
)

// ---------------------------------------------------------------------------
// Cache lines and MACs
// ---------------------------------------------------------------------------

// Line is a 64-byte cache line, the granularity at which SafeGuard forms
// its ECC code.
type Line = bits.Line

// LineFromBytes builds a Line from 64 bytes.
func LineFromBytes(b []byte) Line { return bits.LineFromBytes(b) }

// MAC computes SafeGuard's per-line message authentication codes: eight
// tweaked low-latency block-cipher encryptions XOR-folded to 64 bits,
// truncated to the scheme's width (46 bits for SECDED DIMMs, 32 for
// Chipkill).
type MAC = mac.Keyed

// NewMAC builds a MAC engine from a 16-byte boot key.
func NewMAC(key [16]byte) *MAC { return mac.NewKeyed(key) }

// NewRandomMAC draws the boot key from rng, as the memory controller does
// at boot.
func NewRandomMAC(rng *rand.Rand) *MAC { return mac.NewRandomKeyed(rng) }

// MAC widths of the paper's designs.
const (
	MACWidthSECDED         = mac.WidthSECDED
	MACWidthSECDEDNoParity = mac.WidthSECDEDNoParity
	MACWidthChipkill       = mac.WidthChipkill
)

// ---------------------------------------------------------------------------
// Protection schemes (Sections IV, V, VI)
// ---------------------------------------------------------------------------

// Codec is one memory-protection scheme: it encodes a line's ECC metadata
// on writes and verifies/repairs on reads.
type Codec = ecc.Codec

// DecodeResult reports a read's outcome, including the MAC-check counts the
// security analysis consumes.
type DecodeResult = ecc.Result

// Status classifies a read: OK, Corrected, or DUE (detected uncorrectable
// error).
type Status = ecc.Status

// Read outcomes.
const (
	OK        = ecc.OK
	Corrected = ecc.Corrected
	DUE       = ecc.DUE
)

// CorrectionPolicy selects how SafeGuard-Chipkill locates failed chips:
// Iterative (Figure 9a), History, or Eager (Figure 9b, the default).
type CorrectionPolicy = ecc.CorrectionPolicy

// Correction policies.
const (
	Iterative = ecc.Iterative
	History   = ecc.History
	Eager     = ecc.Eager
)

// NewSECDED returns the conventional word-granularity SECDED baseline
// (Figure 3a).
func NewSECDED() *ecc.SECDED { return ecc.NewSECDED() }

// NewSafeGuardSECDED returns the paper's x8 design (Figure 5): 10-bit
// line-granularity ECC-1, 8-bit column parity, 46-bit MAC.
func NewSafeGuardSECDED(keyed *MAC) *ecc.SafeGuardSECDED {
	return ecc.NewSafeGuardSECDED(keyed)
}

// NewSafeGuardSECDEDNoParity returns the Figure 3b ablation without column
// parity (54-bit MAC).
func NewSafeGuardSECDEDNoParity(keyed *MAC) *ecc.SafeGuardSECDED {
	return ecc.NewSafeGuardSECDEDNoParity(keyed)
}

// NewChipkill returns the conventional x4 symbol-based SSC-DSD baseline
// (Figure 8a).
func NewChipkill() *ecc.Chipkill { return ecc.NewChipkill() }

// NewSafeGuardChipkill returns the paper's x4 design (Figure 8b) with Eager
// Correction and controller spare lines.
func NewSafeGuardChipkill(keyed *MAC) *ecc.SafeGuardChipkill {
	return ecc.NewSafeGuardChipkill(keyed)
}

// NewSafeGuardChipkillPolicy selects the correction policy and MAC width
// explicitly (the Section V-C/V-D ablations). A width outside 1..32 is an
// error.
func NewSafeGuardChipkillPolicy(keyed *MAC, policy CorrectionPolicy, macWidth int) (*ecc.SafeGuardChipkill, error) {
	return ecc.NewSafeGuardChipkillPolicy(keyed, policy, macWidth)
}

// NewSGXStyleMAC returns the Section VI SGX-style comparison organization.
func NewSGXStyleMAC(keyed *MAC) *ecc.SGXStyleMAC { return ecc.NewSGXStyleMAC(keyed) }

// NewSynergyStyleMAC returns the Section VI Synergy-style comparison
// organization.
func NewSynergyStyleMAC(keyed *MAC) *ecc.SynergyStyleMAC { return ecc.NewSynergyStyleMAC(keyed) }

// NewCRCDetect returns the Section IV-A strawman (54-bit CRC in place of
// the MAC), kept for the forgery ablation: linear, keyless detection is
// reverse-engineerable by a bit-flipping adversary.
func NewCRCDetect() *ecc.CRCDetect { return ecc.NewCRCDetect() }

// ---------------------------------------------------------------------------
// Protected memory (functional integration layer)
// ---------------------------------------------------------------------------

// ProtectedMemory is the functional read/write datapath: writes encode
// metadata, reads verify/correct through the codec, and fault injectors
// corrupt the stored image in between.
type ProtectedMemory = memsys.Memory

// MemoryFault is a persistent read-path corruption.
type MemoryFault = memsys.Fault

// NewProtectedMemory builds a memory protected by the codec.
func NewProtectedMemory(codec Codec) *ProtectedMemory { return memsys.New(codec) }

// Persistent fault constructors.
func StuckBitFault(bit int, value uint64) MemoryFault { return memsys.StuckBit(bit, value) }
func FlipBitsFault(positions ...int) MemoryFault      { return memsys.FlipBits(positions...) }
func FlipMetaFault(mask uint64) MemoryFault           { return memsys.FlipMeta(mask) }

// ---------------------------------------------------------------------------
// DUE response (Sections VII-A and VII-B)
// ---------------------------------------------------------------------------

// ResponsePolicy decides the system's preventative actions on detected
// uncorrectable errors and quarantines persistently co-resident suspects
// (the denial-of-service countermeasure).
type ResponsePolicy = response.Policy

// DUEEvent attributes one detected uncorrectable error.
type DUEEvent = response.DUEEvent

// NewResponsePolicy builds the policy (cloud selects migration over
// restart as the first response). Non-positive thresholds are an error.
func NewResponsePolicy(cloud bool, quarantineThreshold int, window float64, rebootThreshold int) (*ResponsePolicy, error) {
	return response.NewPolicy(cloud, quarantineThreshold, window, rebootThreshold)
}

// ResponseEngine is the in-controller DUE response pipeline: bounded
// re-read retries, scrubbing of recovered lines, row retirement onto
// spares, and quarantine escalation for persistent aggressors.
type ResponseEngine = response.Engine

// ResponseEngineConfig parameterizes the escalation thresholds.
type ResponseEngineConfig = response.EngineConfig

// ResponseStep is one recorded escalation action; ResponseStepKind
// classifies it (retry, scrub, retire, quarantine).
type (
	ResponseStep     = response.Step
	ResponseStepKind = response.StepKind
)

// Escalation step kinds.
const (
	StepRetry      = response.StepRetry
	StepScrub      = response.StepScrub
	StepRetire     = response.StepRetire
	StepQuarantine = response.StepQuarantine
)

// DefaultResponseEngineConfig returns the default escalation thresholds.
func DefaultResponseEngineConfig() ResponseEngineConfig { return response.DefaultEngineConfig() }

// NewResponseEngine builds a response engine; attach it to a
// ProtectedMemory with AttachEngine to arm the live read path.
func NewResponseEngine(cfg ResponseEngineConfig) (*ResponseEngine, error) {
	return response.NewEngine(cfg)
}

// QuarantineGate is the controller plugin denying ACTs to quarantined
// rows (the end of the escalation pipeline).
type QuarantineGate = memctrl.QuarantineGate

// NewQuarantineGate builds an empty gate.
func NewQuarantineGate() *QuarantineGate { return memctrl.NewQuarantineGate() }

// ---------------------------------------------------------------------------
// Fault-injection campaigns (deterministic escalation replay)
// ---------------------------------------------------------------------------

// CampaignScenario scripts a fault-injection scenario and its expected
// escalation trace; CampaignResult reports one replay.
type (
	CampaignScenario = faultcampaign.Scenario
	CampaignResult   = faultcampaign.Result
	CampaignOp       = faultcampaign.Op
)

// BuiltinCampaigns returns the four scripted scenarios (transient flip,
// stuck chip, hammered row, repeated-DUE row).
func BuiltinCampaigns() []CampaignScenario { return faultcampaign.Builtin() }

// RunCampaign replays one scenario; expectation mismatches land in
// Result.Failures.
func RunCampaign(s CampaignScenario) (CampaignResult, error) { return faultcampaign.Run(s) }

// RunCampaigns replays a scenario list.
func RunCampaigns(ss []CampaignScenario) ([]CampaignResult, error) { return faultcampaign.RunAll(ss) }

// ---------------------------------------------------------------------------
// ECCploit (Section II-E Case-3, Section VII-D)
// ---------------------------------------------------------------------------

// ECCploitConfig parameterizes the timing-channel escalation attack.
type ECCploitConfig = eccploit.Config

// ECCploitOutcome reports an escalation run.
type ECCploitOutcome = eccploit.Outcome

// DefaultECCploitConfig returns the templated-page attack setup.
func DefaultECCploitConfig() ECCploitConfig { return eccploit.DefaultConfig() }

// RunECCploit escalates Row-Hammer flips under a correction-latency oracle
// against the given scheme.
func RunECCploit(cfg ECCploitConfig, codec Codec) ECCploitOutcome { return eccploit.Run(cfg, codec) }

// ---------------------------------------------------------------------------
// Row-Hammer modeling (Sections II, VII)
// ---------------------------------------------------------------------------

// Bank is a DRAM bank with activation-disturbance tracking, data contents,
// and bit-flip bookkeeping.
type Bank = rowhammer.Bank

// RHConfig parameterizes a bank (rows, RH-Threshold, vulnerable cells).
type RHConfig = rowhammer.Config

// AttackProgram is an attack in the payload DSL (ACT <row>, NOP
// <cycles>, LOOP <count> { … }): the one representation of a hammering
// pattern. Rows() yields its activation stream for RunAttack;
// RunAttackProgram executes it through the cycle-level controller.
type AttackProgram = payload.Program

// The published attack patterns (Section II-E) as programs of exactly
// acts activations.

// SingleSided hammers one aggressor row.
func SingleSided(aggressor, acts int) *AttackProgram { return payload.SingleSided(aggressor, acts) }

// DoubleSided sandwiches the victim between two aggressors.
func DoubleSided(victim, acts int) *AttackProgram { return payload.DoubleSided(victim, acts) }

// ManySided is the TRRespass decoy-row pattern that evicts true
// aggressors from TRR's sampler.
func ManySided(victim, dummies, dummyBase, acts int) *AttackProgram {
	return payload.ManySided(victim, dummies, dummyBase, acts)
}

// HalfDouble is Google's distance-two pattern that weaponizes the
// mitigation's own victim refreshes.
func HalfDouble(victim, nearEvery, acts int) *AttackProgram {
	return payload.HalfDouble(victim, nearEvery, acts)
}

// AttackResult summarizes an attack run; DetectionOutcome classifies what a
// protection scheme did with the flipped lines.
type (
	AttackResult     = rowhammer.AttackResult
	DetectionOutcome = rowhammer.DetectionOutcome
)

// NewBank builds a Row-Hammer bank model.
func NewBank(cfg RHConfig) *Bank { return rowhammer.NewBank(cfg) }

// DefaultRHConfig models one bank at the LPDDR4-new threshold (4.8K).
func DefaultRHConfig() RHConfig { return rowhammer.DefaultConfig() }

// RunAttack drives an activation stream (an AttackProgram's Rows, one
// refresh window per RHActsPerWindow rows) against a bank, with a
// mitigation from NewMitigationPlugin (nil = undefended) seeing the
// untimed ACT/REF stream, and reports the flips under the caption
// pattern.
func RunAttack(b *Bank, mit ControllerPlugin, rows iter.Seq[int], pattern string) rowhammer.AttackResult {
	return rowhammer.RunAttack(b, mit, rows, pattern)
}

// RHActsPerWindow is the number of activation slots in one refresh
// window of the untimed attack driver.
const RHActsPerWindow = memctrl.ActsPerWindow

// EvaluateDetection replays an attack's flipped lines through a protection
// scheme, classifying corrected / detected / silent outcomes.
func EvaluateDetection(b *Bank, codec Codec) rowhammer.DetectionOutcome {
	return rowhammer.EvaluateDetection(b, codec)
}

// RHThresholdHistory is Table I: the falling RH-Threshold per generation.
var RHThresholdHistory = rowhammer.ThresholdHistory

// ---------------------------------------------------------------------------
// Reliability (Figures 6 and 10)
// ---------------------------------------------------------------------------

// FITRates is Table III: the Sridharan field failure rates per device.
var FITRates = faultmodel.SridharanFITRates

// ReliabilityConfig parameterizes a Monte-Carlo lifetime study.
type ReliabilityConfig = faultsim.Config

// ReliabilityResult is one scheme's lifetime study outcome.
type ReliabilityResult = faultsim.Result

// RunReliability executes the FaultSim-style study for the named scheme
// evaluators (see the experiments package for the paper's exact sets).
func RunReliability(eval faultsim.Evaluator, cfg ReliabilityConfig) (ReliabilityResult, error) {
	return faultsim.Run(eval, cfg)
}

// RunReliabilityContext is RunReliability with cancellation: on ctx
// cancel the partial result over the modules simulated so far is
// returned with the context's error.
func RunReliabilityContext(ctx context.Context, eval faultsim.Evaluator, cfg ReliabilityConfig) (ReliabilityResult, error) {
	return faultsim.RunContext(ctx, eval, cfg)
}

// ---------------------------------------------------------------------------
// Performance simulation (Figures 7, 11, 12, 13)
// ---------------------------------------------------------------------------

// SimConfig parameterizes the Table II full-system simulation.
type SimConfig = sim.Config

// SimResult reports per-core IPCs and controller statistics.
type SimResult = sim.Result

// Scheme selects the protection organization in the performance model.
type Scheme = sim.Scheme

// Performance-model schemes.
const (
	SchemeBaseline  = sim.Baseline
	SchemeSafeGuard = sim.SafeGuard
	SchemeSGX       = sim.SGXStyle
	SchemeSynergy   = sim.SynergyStyle
	SchemeSGXFull   = sim.SGXFullStyle
)

// ParseScheme resolves a scheme by name; canonical names round-trip
// exactly through Scheme.String().
func ParseScheme(name string) (Scheme, error) { return sim.ParseScheme(name) }

// SchemeNames lists the canonical scheme names.
func SchemeNames() []string { return sim.SchemeNames() }

// DefaultSimConfig returns the paper's Table II system.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// NewSimSystem assembles a simulation instance.
func NewSimSystem(cfg SimConfig) *sim.System { return sim.NewSystem(cfg) }

// Workloads lists the synthetic SPEC2017-rate stand-ins.
func Workloads() []string { return workload.Names() }

// WorkloadByName returns one workload's calibration.
func WorkloadByName(name string) (workload.Params, error) { return workload.ByName(name) }

// ---------------------------------------------------------------------------
// Controller plugin architecture (in-controller Row-Hammer defenses)
// ---------------------------------------------------------------------------

// ControllerPlugin observes the memory controller's real command stream
// (ACT/RD/WR/REF/VRR); in-controller mitigations, tracers, and metrics
// implement it.
type ControllerPlugin = memctrl.Plugin

// ControllerPluginStats is a drained snapshot of a plugin's counters.
type ControllerPluginStats = memctrl.PluginStats

// MemController is the cycle-level FR-FCFS DDR4 controller; AttachPlugin
// registers plugins for command dispatch.
type MemController = memctrl.Controller

// MitigationNames lists the in-controller mitigation registry ("none",
// "para", "trr", "graphene", "blockhammer").
func MitigationNames() []string { return memctrl.MitigationNames() }

// NewMitigationPlugin resolves an in-controller mitigation by registry
// name, sized for the RH-Threshold ("none" yields a nil plugin).
func NewMitigationPlugin(name string, threshold int, seed uint64) (ControllerPlugin, error) {
	return memctrl.NewMitigationPlugin(name, threshold, seed)
}

// ActivationTracer feeds a controller's command stream into the
// Row-Hammer disturbance model, so attacks run through real timing.
type ActivationTracer = rowhammer.ActivationTracer

// NewActivationTracer builds a tracer over per-bank models with the
// given configuration.
func NewActivationTracer(cfg RHConfig) *ActivationTracer {
	return rowhammer.NewActivationTracer(cfg)
}

// AttackRunConfig/AttackRunResult parameterize and report attack
// programs run through the cycle-level controller.
type (
	AttackRunConfig = payload.RunConfig
	AttackRunResult = payload.Result
)

// RunAttackProgram executes an attack program through a single-bank
// cycle-level controller with a registry-named mitigation plugin
// attached; on ctx cancellation the partial result returns with the
// context's error.
func RunAttackProgram(ctx context.Context, cfg AttackRunConfig, p *AttackProgram) (AttackRunResult, error) {
	return payload.Run(ctx, cfg, p)
}

// ResponseAttackConfig/ResponseAttackResult parameterize and report
// response-enabled attack runs: the attacker hammers through the
// controller while the DUE response pipeline escalates retry → scrub →
// retirement → quarantine.
type (
	ResponseAttackConfig = rowhammer.ResponseAttackConfig
	ResponseAttackResult = rowhammer.ResponseAttackResult
)

// RunResponseAttack drives an activation stream against the full
// response pipeline, reporting it under the caption pattern.
func RunResponseAttack(ctx context.Context, cfg ResponseAttackConfig, rows iter.Seq[int], pattern string) (*ResponseAttackResult, error) {
	return rowhammer.RunResponseAttack(ctx, cfg, rows, pattern)
}

// ---------------------------------------------------------------------------
// Analysis and experiments
// ---------------------------------------------------------------------------

// Section7EBounds returns the paper's MAC-escape time bounds: 46-bit MAC
// (1000+ years), 32-bit iterative (~6 months), 32-bit eager (~9 years).
func Section7EBounds() (secdedYears, chipkillIterativeYears, chipkillEagerYears float64) {
	return analysis.Section7EBounds()
}

// StorageOverheadTable reproduces Table V.
func StorageOverheadTable(baselineGB ...int) []analysis.StorageRow {
	return analysis.StorageOverheadTable(baselineGB...)
}

// Experiments re-exports the harness that regenerates every paper artifact
// (see internal/experiments and DESIGN.md's experiment index).
type (
	// PerfConfig bounds a performance sweep.
	PerfConfig = experiments.PerfConfig
	// PerfResult is a performance sweep's outcome.
	PerfResult = experiments.PerfResult
)

// Quick experiment presets.
func QuickPerfConfig() PerfConfig               { return experiments.QuickPerf() }
func QuickReliabilityConfig() ReliabilityConfig { return experiments.QuickReliability() }

// Figure wrappers run the paper's headline experiments; they honor
// cancellation and surface simulation failures as errors.
func Figure7(ctx context.Context, cfg PerfConfig) (PerfResult, error) {
	return experiments.Figure7(ctx, cfg)
}
func Figure12(ctx context.Context, cfg PerfConfig) (PerfResult, error) {
	return experiments.Figure12(ctx, cfg)
}
func Figure6(ctx context.Context, cfg ReliabilityConfig) ([]ReliabilityResult, error) {
	return experiments.Figure6(ctx, cfg)
}

// ---------------------------------------------------------------------------
// Integrity tree (the machinery SafeGuard trades away; Sections VI, VII-C)
// ---------------------------------------------------------------------------

// SecureMemory is a counter-plus-Merkle-tree protected memory in the SGX
// style: it detects everything SafeGuard detects plus replay, at the
// metadata-traffic and storage cost the paper's comparison excluded.
type SecureMemory = itree.SecureMemory

// NewSecureMemory builds a tree-protected memory of the given line count.
func NewSecureMemory(lines int, keyed *MAC) *SecureMemory {
	return itree.NewSecureMemory(lines, keyed)
}
