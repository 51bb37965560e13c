package attrib

import (
	"bytes"
	"strings"
	"testing"

	"safeguard/internal/telemetry"
)

// FuzzReadReport: the sgprof report reader must never panic on untrusted
// bytes, and every report it accepts must survive WriteJSON→ReadReport
// unchanged: the re-read report serializes to the same bytes. (Bytes,
// not reflect.DeepEqual: an empty list and an absent one are the same
// report, and both serialize to nothing under omitempty.)
func FuzzReadReport(f *testing.F) {
	r := NewReport()
	r.Meta["tool"] = "sgprof"
	var s CPIStack
	s[0], s[1] = 900, 100
	r.AddStack("SafeGuard/mcf", s)
	a := Analyze([]telemetry.Event{
		{Cycle: 1, Kind: telemetry.EvACT, Bank: 2, Row: 40},
		{Cycle: 5, Kind: telemetry.EvDecode, Addr: 0x40, Arg: 2},
		{Cycle: 9, Kind: telemetry.EvQuarantine},
	}, AnalyzerConfig{})
	r.Trace = &a
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":"sgprof/1","cpi_stacks":[{"label":"x","cycles":3,"components":{"base":3}}]}`))
	f.Add([]byte(`{"schema":"sgprof/1","cpi_stacks":[{"label":"x","cycles":4,"components":{"base":3}}]}`))
	f.Add([]byte(`{"schema":"sgprof/0"}`))
	f.Add([]byte(`{"schema":"sgprof/1","trace":{"banks":[{"rank":0}]}}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		rep, err := ReadReport(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := rep.WriteJSON(&out); err != nil {
			t.Fatalf("accepted report does not serialize: %v", err)
		}
		back, err := ReadReport(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("serialized report rejected: %v\n%s", err, out.String())
		}
		var again bytes.Buffer
		if err := back.WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != out.String() {
			t.Fatalf("WriteJSON→ReadReport changed the report:\n%s\n%s", out.String(), again.String())
		}
	})
}
