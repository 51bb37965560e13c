// Command sgoverhead prints the paper's storage and analytic results:
//
//	sgoverhead -table5     Table V: DRAM storage overhead per organization
//	sgoverhead -budgets    per-line ECC bit allocation of every scheme
//	sgoverhead -bounds     Section VII-E MAC-escape time bounds
//	sgoverhead -birthday   Section IV-B multi-fault birthday analysis
//	sgoverhead -all        everything
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"safeguard/internal/analysis"
	"safeguard/internal/cliflags"
	"safeguard/internal/report"
)

func main() {
	var (
		table5   = flag.Bool("table5", false, "print Table V")
		budgets  = flag.Bool("budgets", false, "print ECC bit budgets")
		bounds   = flag.Bool("bounds", false, "print Section VII-E bounds")
		birthday = flag.Bool("birthday", false, "print Section IV-B analysis")
		all      = flag.Bool("all", false, "print everything")
	)
	tf := cliflags.Telemetry(flag.CommandLine)
	flag.Parse()
	if err := cliflags.Exclusive(*all, map[string]bool{
		"table5": *table5, "budgets": *budgets, "bounds": *bounds, "birthday": *birthday,
	}); err != nil {
		cliflags.Fail(err)
	}
	if err := tf.Activate(); err != nil {
		cliflags.Fail(err)
	}
	defer tf.MustFinish()
	tf.SetTraceMeta("tool", "sgoverhead")

	// The sections here are analytic and fast, but honor SIGINT between
	// them like the other commands: print what finished, then stop.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	canceled := func() bool {
		if ctx.Err() != nil {
			fmt.Println("[interrupted]")
			return true
		}
		return false
	}

	if *table5 || *all {
		tf.Registry.Counter("overhead.sections.table5").Inc()
		t := report.NewTable("Table V: usable memory capacity (baseline ECC DIMM)",
			"baseline", "SGX/Synergy-style MAC", "SafeGuard")
		for _, r := range analysis.StorageOverheadTable(16, 64, 256) {
			t.AddRowStrings(fmt.Sprintf("%dGB", r.BaselineGB),
				fmt.Sprintf("%dGB (%dGB loss)", r.SGXSynergyUsableGB, r.SGXSynergyLossGB),
				fmt.Sprintf("%dGB", r.SafeGuardUsableGB))
		}
		t.Render(os.Stdout)
		fmt.Println()
	}
	if canceled() {
		return
	}
	if *budgets || *all {
		tf.Registry.Counter("overhead.sections.budgets").Inc()
		t := report.NewTable("Per-line ECC bit budgets (64 bits per 64-byte line)",
			"scheme", "ECC-1", "column parity", "MAC", "chip parity", "symbol code", "total")
		for _, b := range analysis.ECCBudgets() {
			t.AddRowStrings(b.Scheme, fmt.Sprint(b.ECC1Bits), fmt.Sprint(b.ColumnParity),
				fmt.Sprint(b.MACBits), fmt.Sprint(b.ChipParity), fmt.Sprint(b.RSCheckBits), fmt.Sprint(b.Total()))
		}
		t.Render(os.Stdout)
		fmt.Println()
	}
	if canceled() {
		return
	}
	if *bounds || *all {
		tf.Registry.Counter("overhead.sections.bounds").Inc()
		secded, iter, eager := analysis.Section7EBounds()
		t := report.NewTable("Section VII-E: expected attack time to one MAC escape (one corrupted line per 64ms refresh period)",
			"design", "MAC", "checks/fault", "expected time")
		t.AddRowStrings("SafeGuard-SECDED", "46-bit", "1", fmt.Sprintf("%.0f years (paper: 1000+)", secded))
		t.AddRowStrings("SafeGuard-Chipkill (iterative)", "32-bit", "18", fmt.Sprintf("%.2f years (paper: ~6 months)", iter))
		t.AddRowStrings("SafeGuard-Chipkill (eager)", "32-bit", "1", fmt.Sprintf("%.1f years (paper: ~9 years)", eager))
		t.Render(os.Stdout)
		fmt.Printf("\n  Permanent chip failure without Eager Correction: 32-bit MAC escapes after ~%.0fs at 100M accesses/s (paper: <1 minute).\n\n",
			analysis.PermanentChipFailureEscape(32, 100e6))
	}
	if canceled() {
		return
	}
	if *birthday || *all {
		tf.Registry.Counter("overhead.sections.birthday").Inc()
		m := analysis.NewBirthdayModel(64 << 30)
		fmt.Println("Section IV-B: birthday analysis of independent single-bit faults (64GB memory)")
		fmt.Printf("  lines: 2^30; faults before a two-fault line: ~%.0f\n", m.FaultsForCollision())
		fmt.Printf("  P(SECDED corrects what SafeGuard cannot): %.3g (paper: 3.51e-5)\n", m.SECDEDSuperiorityProbability())
		years := m.YearsToTwoFaultLine(1.0 / (6 * 30 * 24))
		fmt.Printf("  years to a word-distinct two-fault line at 100x FIT: ~%.0f (paper's shortcut arithmetic: ~2,500; both are millennia)\n\n", years)
	}
}
