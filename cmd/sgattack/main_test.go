package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden stdout files")

// TestRunGolden pins the stdout of every fast study at seed 7 byte for
// byte. Regenerate intentionally with
//
//	go test ./cmd/sgattack -run TestRunGolden -update
func TestRunGolden(t *testing.T) {
	t.Parallel()
	for _, section := range []string{"table1", "fig2", "breakthrough", "eccploit", "blockhammer", "mc", "respond"} {
		section := section
		t.Run(section, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-" + section, "-seed", "7"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			path := filepath.Join("testdata", section+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Fatalf("stdout diverges from %s\n got:\n%s\nwant:\n%s", path, stdout.String(), want)
			}
		})
	}
}

// TestRunUsageErrors checks that bad invocations exit 2 with a message
// naming the problem and print nothing on stdout.
func TestRunUsageErrors(t *testing.T) {
	t.Parallel()
	cases := map[string]struct {
		args []string
		msg  string
	}{
		"two selections":     {[]string{"-mc", "-fig2"}, "mutually exclusive"},
		"unknown mitigation": {[]string{"-mc", "-mitigation", "moat"}, "moat"},
		"json without synth": {[]string{"-mc", "-json"}, "require -synth"},
		"no selection":       {nil, "no experiment selected"},
		"unknown flag":       {[]string{"-warp"}, "warp"},
		"bad thresholds":     {[]string{"-synth", "-synth-thresholds", "0"}, "synth-thresholds"},
	}
	for name, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
		if !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("%s: stderr does not mention %q:\n%s", name, c.msg, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: usage error wrote to stdout:\n%s", name, stdout.String())
		}
	}
}
