package payload

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"safeguard/internal/memctrl"
)

// Golden regression for controller-driven attacks and the library's
// canonical encodings. Regenerate intentionally with
//
//	go test ./internal/payload -run 'TestPayloadScriptedParity|TestLibraryStreamsMatchPatterns' -update
var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// controllerRun is what the controller golden pins per (mitigation,
// program) cell.
type controllerRun struct {
	Activations         int                            `json:"activations"`
	Stalled             bool                           `json:"stalled"`
	FlipsByRow          map[int]int                    `json:"flipsByRow"`
	MitigationRefreshes int                            `json:"mitigationRefreshes"`
	PluginStats         map[string]memctrl.PluginStats `json:"pluginStats"`
	MCStats             memctrl.Stats                  `json:"mcStats"`
	Cycles              int64                          `json:"cycles"`
}

const controllerActs = 3000

// controllerPrograms are the four library attacks the controller golden
// runs against every mitigation in the registry.
func controllerPrograms() []*Program {
	return []*Program{
		SingleSided(500, controllerActs),
		DoubleSided(500, controllerActs),
		ManySided(500, 6, 800, controllerActs),
		HalfDouble(500, 8, controllerActs),
	}
}

func controllerConfig(mit, engine string) RunConfig {
	return RunConfig{
		Bank: parityBank(), Mitigation: mit, Seed: 3,
		MaxActivations: controllerActs, MaxCycles: 4_000_000, Engine: engine,
	}
}

func toControllerRun(res Result) controllerRun {
	return controllerRun{
		Activations: res.Activations, Stalled: res.Stalled, FlipsByRow: res.FlipsByRow,
		MitigationRefreshes: res.MitigationRefreshes, PluginStats: res.PluginStats,
		MCStats: res.MCStats, Cycles: res.Cycles,
	}
}

// TestPayloadScriptedParity pins the four library attacks against every
// registered mitigation through the cycle-level controller: flips per
// row, activation and refresh counters, plugin decisions, controller
// statistics and run length. The golden was recorded with the scripted
// attack runner the interpreter replaced, so a match is parity with it.
// Both engines must reproduce the golden exactly, which is also the
// event-versus-cycle A/B for attack runs.
func TestPayloadScriptedParity(t *testing.T) {
	t.Parallel()
	path := filepath.Join("testdata", "controller_attacks_golden.json")
	if *updateGolden {
		got := make(map[string]controllerRun)
		for _, mit := range memctrl.MitigationNames() {
			for _, p := range controllerPrograms() {
				res, err := Run(context.Background(), controllerConfig(mit, EngineCycle), p)
				if err != nil {
					t.Fatal(err)
				}
				got[mit+"/"+p.Name] = toControllerRun(res)
			}
		}
		writeGolden(t, path, got)
		return
	}
	var want map[string]controllerRun
	readGolden(t, path, &want)
	n := 0
	for _, mit := range memctrl.MitigationNames() {
		for _, p := range controllerPrograms() {
			mit, p := mit, p
			n++
			t.Run(mit+"/"+p.Name, func(t *testing.T) {
				t.Parallel()
				w, ok := want[mit+"/"+p.Name]
				if !ok {
					t.Fatal("cell missing from the golden")
				}
				for _, engine := range []string{EngineEvent, EngineCycle} {
					res, err := Run(context.Background(), controllerConfig(mit, engine), p)
					if err != nil {
						t.Fatal(err)
					}
					if g := toControllerRun(res); !reflect.DeepEqual(normalizeControllerRun(g), normalizeControllerRun(w)) {
						t.Errorf("%s engine diverges from golden\n got: %+v\nwant: %+v", engine, g, w)
					}
				}
			})
		}
	}
	if len(want) != n {
		t.Errorf("golden has %d cells, test runs %d", len(want), n)
	}
}

// normalizeControllerRun maps an empty flip histogram to nil so a JSON
// round trip compares equal to a fresh run.
func normalizeControllerRun(r controllerRun) controllerRun {
	if len(r.FlipsByRow) == 0 {
		r.FlipsByRow = nil
	}
	return r
}

// libraryCases are the library builders whose canonical encodings are
// pinned: acts is not a multiple of any period in play, so every builder
// emits both a loop and a remainder.
func libraryCases() []*Program {
	const acts = 1000
	return []*Program{
		SingleSided(40, acts),
		DoubleSided(40, acts),
		ManySided(40, 6, 600, acts),
		HalfDouble(40, 0, acts),
		HalfDouble(40, 3, acts),
		HalfDouble(40, 4, acts),
	}
}

// TestLibraryStreamsMatchPatterns pins each library builder's canonical
// Encode() bytes, recorded while the builders were still checked row for
// row against the scripted pattern generators they replaced. A builder
// change that moves a single row, loop count or name shows up as a diff.
func TestLibraryStreamsMatchPatterns(t *testing.T) {
	t.Parallel()
	var b strings.Builder
	for _, p := range libraryCases() {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got := p.Acts(); got != 1000 {
			t.Fatalf("%s: Acts() = %d, want 1000", p.Name, got)
		}
		b.WriteString(p.Encode())
	}
	got := b.String()
	path := filepath.Join("testdata", "library_encodings_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("library encodings diverge from %s\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

func writeGolden(t *testing.T, path string, v any) {
	t.Helper()
	blob, err := json.MarshalIndent(v, "", "  ")
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
}

func readGolden(t *testing.T, path string, v any) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if err := json.Unmarshal(blob, v); err != nil {
		t.Fatal(err)
	}
}
