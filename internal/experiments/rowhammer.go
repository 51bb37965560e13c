package experiments

import (
	"safeguard/internal/ecc"
	"safeguard/internal/memctrl"
	"safeguard/internal/payload"
	"safeguard/internal/rowhammer"
)

// Figure1bResult is one (attack, mitigation) outcome of the breakthrough
// study, including what a protection scheme then does with the flips.
type Figure1bResult struct {
	Attack    rowhammer.AttackResult
	Detection []rowhammer.DetectionOutcome
	// DistanceTwoFlips counts flips two rows from the hammered aggressor
	// (the Half-Double signature of Figure 1b).
	DistanceTwoFlips int
}

// Figure1b runs the paper's breakthrough case studies (Section II-E,
// Figures 1b/1c): Half-Double against PARA/Graphene/TRR and TRRespass
// against TRR, then evaluates detection of the resulting flips under
// conventional SECDED and both SafeGuard designs. The SafeGuard rows must
// show zero silent lines — the paper's security-to-reliability conversion.
func Figure1b(seed uint64) []Figure1bResult {
	cfg := rowhammer.DefaultConfig()
	cfg.Rows = 8192
	cfg.Seed = seed
	// Concentrate the damage the way a determined attacker does (victim
	// data placed in few lines, many weak cells): multi-bit lines are
	// what separate SECDED's silent miscorrections from SafeGuard's DUEs.
	cfg.LinesPerRow = 16
	cfg.VulnerableCellsPerRow = 256
	cfg.FlipsPerCrossing = 16

	// label is the printed mitigation caption and attack the printed
	// attack caption; mit is the registry name. Each attack runs for two
	// refresh windows.
	type study struct {
		label, mit, attack string
		prog               *payload.Program
		reference          int
	}
	const victim, acts = 4000, 2 * memctrl.ActsPerWindow
	studies := []study{
		{"TRR", "trr", "TRRespass-many-sided(4000,+12 dummies)",
			payload.ManySided(victim, 12, 6000, acts), victim - 1},
		{"PARA", "para", "half-double(4000)", payload.HalfDouble(victim, 0, acts), victim + 2},
		{"Graphene", "graphene", "half-double(4000)", payload.HalfDouble(victim, 680, acts), victim + 2},
		{"TRR", "trr", "half-double(4000)", payload.HalfDouble(victim, 1130, acts), victim + 2},
	}

	keyed := testKey()
	out := make([]Figure1bResult, 0, len(studies))
	for _, st := range studies {
		mit, err := memctrl.NewMitigationPlugin(st.mit, cfg.Threshold, seed)
		if err != nil {
			panic(err) // registry names above are fixed
		}
		bank := rowhammer.NewBank(cfg)
		res := rowhammer.RunAttackAround(bank, mit, st.prog.Rows(), st.attack, st.reference)
		res.Mitigation = st.label
		r := Figure1bResult{
			Attack:           res,
			DistanceTwoFlips: res.FlipsByDistance[2],
		}
		r.Detection = append(r.Detection,
			rowhammer.EvaluateDetection(bank, ecc.NewSECDED()),
			rowhammer.EvaluateDetection(bank, ecc.NewSafeGuardSECDED(keyed)),
			rowhammer.EvaluateDetection(bank, ecc.NewSafeGuardChipkill(keyed)),
		)
		out = append(out, r)
	}
	return out
}

// Figure2Result reports the basic Row-Hammer demonstration.
type Figure2Result struct {
	Threshold        int
	ActivationsUsed  int
	FlipsInNeighbors int
}

// Figure2 demonstrates the base phenomenon on an unprotected bank:
// double-sided hammering at the threshold flips bits in the victim.
func Figure2(seed uint64) Figure2Result {
	cfg := rowhammer.DefaultConfig()
	cfg.Rows = 4096
	cfg.Seed = seed
	bank := rowhammer.NewBank(cfg)
	const victim = 2000
	acts := 0
	for row := range payload.DoubleSided(victim, 4*cfg.Threshold).Rows() {
		if len(bank.FlipsInRow(victim)) != 0 {
			break
		}
		bank.Activate(row)
		acts++
	}
	return Figure2Result{
		Threshold:        cfg.Threshold,
		ActivationsUsed:  acts,
		FlipsInNeighbors: len(bank.FlipsInRow(victim)),
	}
}
