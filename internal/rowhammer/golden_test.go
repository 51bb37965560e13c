package rowhammer_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"safeguard/internal/memctrl"
	"safeguard/internal/payload"
	"safeguard/internal/rowhammer"
)

// Golden regression for the untimed attack studies: the full outcome of
// every Figure 1b study (seeds 7 and 42), both BlockHammer sizings of the
// Section VIII study (seeds 7 and 42), the mitigation/BlockHammer
// ablation pairs and the BlockHammer unit-test scenarios is pinned in
// testdata/untimed_attacks_golden.json — attack counters, per-row and
// per-distance flip histograms, the ordered flip list and the throttle
// count. Any change to the driver's REF/window cadence or a mitigation's
// decisions shows up as a diff here. Regenerate intentionally with
//
//	go test ./internal/rowhammer -run TestUntimedAttacksGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenCase is one frozen attack run.
type goldenCase struct {
	name       string
	cfg        rowhammer.Config
	mitigation string // registry name
	threshold  int    // mitigation sizing
	seed       uint64 // mitigation randomness (PARA)
	attack     study
	reference  int
}

// study is an attack program plus the caption the golden pins for it.
type study struct {
	caption string
	prog    *payload.Program
}

// windows is the study's length in whole refresh windows.
func (s study) windows() int { return int(s.prog.Acts() / window) }

// The study constructors: programs sized in whole refresh windows,
// captioned with the names the golden file records.
func singleSided(aggressor, windows int) study {
	return study{fmt.Sprintf("single-sided(%d)", aggressor), payload.SingleSided(aggressor, windows*window)}
}

func doubleSided(victim, windows int) study {
	return study{fmt.Sprintf("double-sided(%d)", victim), payload.DoubleSided(victim, windows*window)}
}

func trrespassStudy(victim, dummyBase, windows int) study {
	return study{fmt.Sprintf("TRRespass-many-sided(%d,+12 dummies)", victim),
		payload.ManySided(victim, 12, dummyBase, windows*window)}
}

func halfDouble(victim, nearEvery, windows int) study {
	return study{fmt.Sprintf("half-double(%d)", victim), payload.HalfDouble(victim, nearEvery, windows*window)}
}

// goldenRun is what the golden file pins per case. Mitigation is the
// lower-cased mitigation name, so display capitalization is not pinned.
type goldenRun struct {
	Pattern             string      `json:"pattern"`
	Mitigation          string      `json:"mitigation"`
	Windows             int         `json:"windows"`
	Activations         int         `json:"activations"`
	MitigationRefreshes int         `json:"mitigationRefreshes"`
	Throttled           int         `json:"throttled"`
	TotalFlips          int         `json:"totalFlips"`
	FlipsByRow          map[int]int `json:"flipsByRow"`
	FlipsByDistance     map[int]int `json:"flipsByDistance"`
	// Flips is the bank's ordered flip list as "row:line:bit" tokens.
	Flips string `json:"flips"`
}

func figure1bConfig(seed uint64) rowhammer.Config {
	cfg := rowhammer.DefaultConfig()
	cfg.Rows = 8192
	cfg.Seed = seed
	cfg.LinesPerRow = 16
	cfg.VulnerableCellsPerRow = 256
	cfg.FlipsPerCrossing = 16
	return cfg
}

func sizingConfig(seed uint64) rowhammer.Config {
	cfg := rowhammer.DefaultConfig()
	cfg.Rows = 8192
	cfg.Seed = seed
	return cfg
}

func goldenCases() []goldenCase {
	const victim = 4000
	var cases []goldenCase
	for _, seed := range []uint64{7, 42} {
		cfg := figure1bConfig(seed)
		th := cfg.Threshold
		cases = append(cases,
			goldenCase{fmt.Sprintf("figure1b/seed%d/trr/trrespass", seed), cfg, "trr", th, seed,
				trrespassStudy(victim, 6000, 2), victim - 1},
			goldenCase{fmt.Sprintf("figure1b/seed%d/para/half-double", seed), cfg, "para", th, seed,
				halfDouble(victim, 0, 2), victim + 2},
			goldenCase{fmt.Sprintf("figure1b/seed%d/graphene/half-double", seed), cfg, "graphene", th, seed,
				halfDouble(victim, 680, 2), victim + 2},
			goldenCase{fmt.Sprintf("figure1b/seed%d/trr/half-double", seed), cfg, "trr", th, seed,
				halfDouble(victim, 1130, 2), victim + 2},
		)
	}
	for _, seed := range []uint64{7, 42, 17} {
		cfg := sizingConfig(seed)
		cases = append(cases,
			goldenCase{fmt.Sprintf("blockhammer-sizing/seed%d/sized", seed), cfg, "blockhammer", cfg.Threshold, 0, doubleSided(victim, 1), -1},
			goldenCase{fmt.Sprintf("blockhammer-sizing/seed%d/under-sized", seed), cfg, "blockhammer", 3 * cfg.Threshold, 0, doubleSided(victim, 1), -1},
		)
	}
	abl := sizingConfig(13)
	cases = append(cases,
		goldenCase{"ablation/none/double-sided", abl, "none", abl.Threshold, 13, doubleSided(victim, 1), -1},
		goldenCase{"ablation/trr/trrespass", abl, "trr", abl.Threshold, 13,
			trrespassStudy(victim, 6000, 1), -1},
		goldenCase{"ablation/para/half-double", abl, "para", abl.Threshold, 13,
			halfDouble(victim, 0, 1), -1},
		goldenCase{"ablation/graphene/half-double", abl, "graphene", abl.Threshold, 13,
			halfDouble(victim, 680, 1), -1},
	)
	// The BlockHammer unit-test scenarios (4096-row bank, seed 7).
	unit := rowhammer.DefaultConfig()
	unit.Rows = 4096
	unit.Seed = 7
	th := unit.Threshold
	cases = append(cases,
		goldenCase{"blockhammer-unit/double-sided", unit, "blockhammer", th, 0,
			doubleSided(1000, 1), -1},
		goldenCase{"blockhammer-unit/many-sided", unit, "blockhammer", th, 0,
			trrespassStudy(1200, 2000, 1), -1},
		goldenCase{"blockhammer-unit/half-double-near", unit, "blockhammer", th, 0,
			halfDouble(1500, 1130, 1), -1},
		goldenCase{"blockhammer-unit/half-double", unit, "blockhammer", th, 0,
			halfDouble(1500, 0, 1), -1},
		goldenCase{"blockhammer-unit/single-sided", unit, "blockhammer", th, 0,
			singleSided(2222, 1), -1},
		goldenCase{"blockhammer-unit/under-provisioned", unit, "blockhammer", 10_000, 0,
			doubleSided(1000, 1), -1},
	)
	return cases
}

func runGoldenCase(t *testing.T, c goldenCase) goldenRun {
	t.Helper()
	b := rowhammer.NewBank(c.cfg)
	mit, err := memctrl.NewMitigationPlugin(c.mitigation, c.threshold, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	res := rowhammer.RunAttackAround(b, mit, c.attack.prog.Rows(), c.attack.caption, c.reference)
	flips := make([]string, len(b.Flips()))
	for i, f := range b.Flips() {
		flips[i] = fmt.Sprintf("%d:%d:%d", f.Row, f.Line, f.Bit)
	}
	return goldenRun{
		Pattern:             res.Pattern,
		Mitigation:          strings.ToLower(res.Mitigation),
		Windows:             res.Windows,
		Activations:         res.Activations,
		MitigationRefreshes: res.MitigationRefreshes,
		Throttled:           res.Throttled,
		TotalFlips:          res.TotalFlips,
		FlipsByRow:          res.FlipsByRow,
		FlipsByDistance:     res.FlipsByDistance,
		Flips:               strings.Join(flips, " "),
	}
}

func TestUntimedAttacksGolden(t *testing.T) {
	t.Parallel()
	got := make(map[string]goldenRun)
	for _, c := range goldenCases() {
		got[c.name] = runGoldenCase(t, c)
	}
	path := filepath.Join("testdata", "untimed_attacks_golden.json")
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want map[string]goldenRun
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, test produced %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: case missing from the test", name)
			continue
		}
		if !reflect.DeepEqual(normalizeRun(g), normalizeRun(w)) {
			gf, wf := g.Flips, w.Flips
			g.Flips, w.Flips = "", ""
			t.Errorf("%s: run diverges from golden\n got: %+v\nwant: %+v\nflip lists equal: %v", name, g, w, gf == wf)
		}
	}
}

// normalizeRun maps empty histograms to nil so a JSON round trip compares
// equal to a freshly computed run.
func normalizeRun(r goldenRun) goldenRun {
	if len(r.FlipsByRow) == 0 {
		r.FlipsByRow = nil
	}
	if len(r.FlipsByDistance) == 0 {
		r.FlipsByDistance = nil
	}
	return r
}
