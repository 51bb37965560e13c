package telemetry

import "testing"

// FuzzParseEvent: the trace-file line parser must never panic, and every
// accepted line must canonicalize: its String() form re-parses to an
// event that renders identically, so a trace file rewritten from parsed
// events reads back the same.
func FuzzParseEvent(f *testing.F) {
	for _, e := range sampleEvents() {
		f.Add(e.String())
	}
	f.Add("12 ACT rank=0 bank=+3 row=-1")
	f.Add("7 DECODE addr=0777 status=-2")
	f.Add("5 REF rank=1 row=9")
	f.Add("x ACT")
	f.Add("1 ACT rank")
	f.Fuzz(func(t *testing.T, line string) {
		e, err := ParseEvent(line)
		if err != nil {
			return
		}
		canon := e.String()
		back, err := ParseEvent(canon)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\nline: %q\ncanonical: %q", err, line, canon)
		}
		if again := back.String(); again != canon {
			t.Fatalf("canonical form unstable:\n%q\n%q", canon, again)
		}
	})
}
