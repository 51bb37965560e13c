// Row-Hammer defense in depth: run the published breakthrough attacks
// (TRRespass against TRR, Half-Double against PARA/Graphene/TRR) on a bank
// model, show the mitigations failing exactly the way Section II-E of the
// paper describes, then show SafeGuard converting the resulting bit-flips
// into detected uncorrectable errors.
package main

import (
	"fmt"

	"safeguard"
)

func main() {
	cfg := safeguard.DefaultRHConfig()
	cfg.Rows = 8192
	cfg.Seed = 2022
	const victim = 4000

	fmt.Println("=== Phase 1: classic attacks are stopped by deployed mitigations ===")
	// Mitigations come from the registry by name; the labels are the
	// printed captions.
	mitigation := func(name string) safeguard.ControllerPlugin {
		mit, err := safeguard.NewMitigationPlugin(name, cfg.Threshold, 1)
		if err != nil {
			panic(err)
		}
		return mit
	}
	classic := []struct{ label, mit string }{
		{"PARA", "para"},
		{"TRR", "trr"},
		{"Graphene", "graphene"},
	}
	for _, c := range classic {
		bank := safeguard.NewBank(cfg)
		res := safeguard.RunAttack(bank, mitigation(c.mit), &safeguard.DoubleSided{Victim: victim}, 1)
		note := "mitigation held"
		if res.TotalFlips > 0 {
			// PARA is probabilistic: a ~e^-10 per-window tail can leak a
			// few flips into the aggressors' outer neighbours even when
			// the targeted victim survives.
			note = fmt.Sprintf("targeted victim held; %d stray flips from the probabilistic tail", res.TotalFlips)
		}
		fmt.Printf("  double-sided vs %-9s: %d flips in the victim row (%s)\n",
			c.label, res.FlipsByRow[victim], note)
	}

	fmt.Println("\n=== Phase 2: breakthrough patterns defeat the same mitigations ===")
	type study struct {
		name, mit string
		pattern   func() safeguard.AttackPattern
	}
	studies := []study{
		{"TRRespass vs TRR", "trr",
			func() safeguard.AttackPattern {
				return &safeguard.ManySided{Victim: victim, Dummies: 12, DummyBase: 6000}
			}},
		{"Half-Double vs PARA", "para",
			func() safeguard.AttackPattern { return &safeguard.HalfDouble{Victim: victim} }},
		{"Half-Double vs Graphene", "graphene",
			func() safeguard.AttackPattern { return &safeguard.HalfDouble{Victim: victim, NearEvery: 680} }},
		{"Half-Double vs TRR", "trr",
			func() safeguard.AttackPattern { return &safeguard.HalfDouble{Victim: victim, NearEvery: 1130} }},
	}

	banks := make([]*safeguard.Bank, 0, len(studies))
	for _, st := range studies {
		bank := safeguard.NewBank(cfg)
		res := safeguard.RunAttack(bank, mitigation(st.mit), st.pattern(), 2)
		fmt.Printf("  %-24s: %d flips across %d victim rows (%d mitigation refreshes issued)\n",
			st.name, res.TotalFlips, len(res.FlipsByRow), res.MitigationRefreshes)
		banks = append(banks, bank)
	}

	fmt.Println("\n=== Phase 3: SafeGuard turns the breakthrough flips into DUEs ===")
	keyed := safeguard.NewMAC([16]byte{0xAA, 0x55, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	for i, st := range studies {
		secded := safeguard.EvaluateDetection(banks[i], safeguard.NewSECDED())
		sg := safeguard.EvaluateDetection(banks[i], safeguard.NewSafeGuardSECDED(keyed))
		fmt.Printf("  %-24s SECDED:    %s\n", st.name, secded)
		fmt.Printf("  %-24s SafeGuard: %s\n", "", sg)
		if sg.Silent != 0 {
			panic("SafeGuard must never deliver corrupted data silently")
		}
	}
	fmt.Println("\nEvery SafeGuard line reads SILENT=0: the attack is detected, not consumed.")

	fmt.Println("\n=== Phase 4: the same fight through the cycle-level controller ===")
	fmt.Println("Mitigations resolved by registry name run as controller plugins; their")
	fmt.Println("victim refreshes are VRR commands paying real bank timing (tRAS+tRP).")
	for _, name := range safeguard.MitigationNames() {
		mcCfg := safeguard.MCAttackConfig{
			Bank: safeguard.RHConfig{
				Rows: 8192, Threshold: 1000, LinesPerRow: 16,
				VulnerableCellsPerRow: 64, FlipsPerCrossing: 8, Seed: 2022,
			},
			Mitigation: name,
			Seed:       2022,
			Accesses:   30_000,
			MaxCycles:  20_000_000,
		}
		res, err := safeguard.RunMCAttack(mcCfg, &safeguard.DoubleSided{Victim: victim})
		if err != nil {
			panic(err)
		}
		note := ""
		if res.Stalled {
			note = "  [attacker stalled by ACT throttling]"
		}
		fmt.Printf("  %-12s: %5d flips, %5d VRRs, %8d cycles%s\n",
			name, res.TotalFlips, res.MCStats.VRRs, res.Cycles, note)
	}
}
