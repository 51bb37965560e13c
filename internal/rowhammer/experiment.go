package rowhammer

import (
	"fmt"

	"safeguard/internal/bits"
	"safeguard/internal/ecc"
	"safeguard/internal/memctrl"
)

// ThresholdEntry is one row of the paper's Table I.
type ThresholdEntry struct {
	Generation string
	Threshold  int
	Year       int
}

// ThresholdHistory is Table I: the RH-Threshold per DRAM generation,
// falling ~30x between 2014 and 2020.
var ThresholdHistory = []ThresholdEntry{
	{"DDR3 (old)", 139_000, 2014},
	{"DDR3 (new)", 22_400, 2020},
	{"DDR4 (old)", 17_500, 2020},
	{"DDR4 (new)", 10_000, 2020},
	{"LPDDR4 (old)", 16_800, 2020},
	{"LPDDR4 (new)", 4_800, 2020},
}

// AttackResult summarizes one attack run.
type AttackResult struct {
	Pattern             string
	Mitigation          string
	Windows             int
	Activations         int
	MitigationRefreshes int
	// Throttled counts activations the mitigation's ACT gate denied
	// (BlockHammer): the command slot passed but the row was not opened.
	Throttled int
	// FlipsByRow maps victim rows to flip counts.
	FlipsByRow map[int]int
	TotalFlips int
	// FlipsByDistance histograms flips by |victim - referenceRow| when a
	// reference row is supplied to RunAttackAround.
	FlipsByDistance map[int]int
}

// Broke reports whether the attack produced any bit flips despite the
// mitigation.
func (r AttackResult) Broke() bool { return r.TotalFlips > 0 }

func (r AttackResult) String() string {
	return fmt.Sprintf("%-38s vs %-9s: %6d flips in %d window(s) (%d acts, %d mitigation refreshes)",
		r.Pattern, r.Mitigation, r.TotalFlips, r.Windows, r.Activations, r.MitigationRefreshes)
}

// RunAttack drives `pattern` against the bank under the mitigation plugin
// `mit` (nil = unprotected) for `windows` refresh windows; see
// RunAttackAround.
func RunAttack(b *Bank, mit memctrl.Plugin, pattern Pattern, windows int) AttackResult {
	return RunAttackAround(b, mit, pattern, windows, -1)
}

// bankSink is the untimed VRR sink: a victim-row refresh lands on the bank
// the moment the plugin requests it.
type bankSink struct{ b *Bank }

func (s bankSink) EnqueueVRR(rank, bank, row int) bool {
	if row < 0 || row >= s.b.cfg.Rows {
		return false
	}
	s.b.RefreshRow(row)
	return true
}

// RunAttackAround is the untimed ACT-stream driver: each refresh window
// is memctrl.ActsPerWindow command slots on bank (0, 0), one pattern row
// per slot, with REF commands at the tREFI rate. The mitigation is a
// memctrl plugin seeing the same ACT/REF stream the controller would
// issue; its VRRs refresh the bank at once and its ActGate (if any)
// throttles activations, counted in AttackResult.Throttled.
//
// Each window's last REF is issued after the window's final ACT, just
// before the bank's auto-refresh: plugins rotate their per-window state
// (Graphene's table, BlockHammer's filter) on that REF, so the rotation
// coincides with the disturbance reset. referenceRow >= 0 fills
// AttackResult.FlipsByDistance (Figure 1b reports flips at distance 2).
func RunAttackAround(b *Bank, mit memctrl.Plugin, pattern Pattern, windows, referenceRow int) AttackResult {
	name := "none"
	var gate memctrl.ActGate
	if mit != nil {
		name = mit.Name()
		if sb, ok := mit.(memctrl.SinkBinder); ok {
			sb.BindSink(bankSink{b})
		}
		gate, _ = mit.(memctrl.ActGate)
	}
	refEvery := memctrl.ActsPerWindow / memctrl.REFsPerWindow
	var slot int64
	throttled := 0
	for w := 0; w < windows; w++ {
		for i := 0; i < memctrl.ActsPerWindow; i++ {
			row := pattern.Next()
			if gate != nil && !gate.AllowAct(0, 0, row, slot) {
				throttled++
			} else {
				b.Activate(row)
				if mit != nil {
					mit.OnCommand(memctrl.CmdACT, 0, 0, row, slot)
				}
			}
			if mit != nil && i%refEvery == refEvery-1 && i/refEvery < memctrl.REFsPerWindow-1 {
				mit.OnCommand(memctrl.CmdREF, 0, -1, -1, slot)
			}
			slot++
		}
		if mit != nil {
			mit.OnCommand(memctrl.CmdREF, 0, -1, -1, slot)
		}
		b.RefreshWindow()
	}
	res := AttackResult{
		Pattern:             pattern.Name(),
		Mitigation:          name,
		Windows:             windows,
		Activations:         b.Activations,
		MitigationRefreshes: b.MitigationRefreshes,
		Throttled:           throttled,
		FlipsByRow:          make(map[int]int),
		FlipsByDistance:     make(map[int]int),
	}
	for _, f := range b.Flips() {
		res.FlipsByRow[f.Row]++
		res.TotalFlips++
		if referenceRow >= 0 {
			d := f.Row - referenceRow
			if d < 0 {
				d = -d
			}
			res.FlipsByDistance[d]++
		}
	}
	return res
}

// DetectionOutcome classifies what a protection scheme did with the
// attack's flipped lines.
type DetectionOutcome struct {
	Scheme string
	// LinesAttacked is how many distinct lines had flips.
	LinesAttacked int
	// Corrected lines were repaired transparently (flip count within the
	// code's strength).
	Corrected int
	// Detected lines raised a DUE: the paper's conversion of a security
	// risk into a reliability event.
	Detected int
	// Silent lines delivered corrupted data without any signal — the
	// security failure SafeGuard eliminates.
	Silent int
}

func (o DetectionOutcome) String() string {
	return fmt.Sprintf("%-28s lines=%3d corrected=%3d detected(DUE)=%3d SILENT=%d",
		o.Scheme, o.LinesAttacked, o.Corrected, o.Detected, o.Silent)
}

// EvaluateDetection replays the attack's damage against a protection
// scheme: each flipped line is decoded from its pre-attack metadata, and
// the outcome is classified as corrected, detected (DUE), or silent
// corruption.
func EvaluateDetection(b *Bank, codec ecc.Codec) DetectionOutcome {
	out := DetectionOutcome{Scheme: codec.Name()}
	type key struct{ row, line int }
	seen := make(map[key]bool)
	for _, f := range b.Flips() {
		k := key{f.Row, f.Line}
		if seen[k] {
			continue
		}
		seen[k] = true
		out.LinesAttacked++
		golden := b.GoldenLine(f.Row, f.Line)
		addr := uint64(f.Row*b.cfg.LinesPerRow+f.Line) * bits.LineBytes
		meta := codec.Encode(golden, addr)
		stored := b.ReadLine(f.Row, f.Line)
		res := codec.Decode(stored, meta, addr)
		switch {
		case res.Status == ecc.DUE:
			out.Detected++
		case res.Line == golden:
			out.Corrected++
		default:
			out.Silent++
		}
	}
	return out
}
