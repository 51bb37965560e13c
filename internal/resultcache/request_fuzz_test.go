package resultcache

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseRequest: ParseRequest takes untrusted bytes from the job API,
// so it must never panic, and an accepted request must round-trip
// through its canonical JSON to the same cache key — otherwise two
// spellings of one request could alias different artifacts, or a stored
// request could not be resubmitted.
func FuzzParseRequest(f *testing.F) {
	f.Add(`{"kind":"perf","perf":{"schemes":["SafeGuard"],"workloads":["leela"],"seeds":[1],"instr_per_core":1500,"warmup_instr":500}}`)
	f.Add(`{"kind":"perf","perf":{"schemes":["sgx","synergy"],"workloads":["mcf"],"seeds":[3,1],"instr_per_core":2000,"warmup_instr":0,"mitigation":"PARA","rh_threshold":600}}`)
	f.Add(`{"kind":"rel","rel":{"evaluators":["chipkill"],"modules":1000}}`)
	f.Add(`{"kind":"rel","rel":{"evaluators":["secded","sg_secded"],"modules":500,"years":7,"fit_scale":10,"seed":4,"scrub_interval_hours":24}}`)
	f.Add(`{"kind":"synth","synth":{"bank":{"Rows":64,"Threshold":120,"LinesPerRow":8,"VulnerableCellsPerRow":16,"FlipsPerCrossing":4,"Seed":9},` +
		`"mitigations":["none","para"],"thresholds":[120],"seed":1,"budget":400,"generations":2,"population":4}}`)
	f.Add(`{"kind":"perf","perf":{"sheme":["SafeGuard"]}}`)
	f.Add(`{"kind":`)
	f.Add(`{"kind":"warm","perf":{}}`)
	f.Fuzz(func(t *testing.T, in string) {
		req, err := ParseRequest(strings.NewReader(in))
		if err != nil {
			return
		}
		hash, err := req.Hash()
		if err != nil {
			t.Fatalf("accepted request does not hash: %v\ninput: %q", err, in)
		}
		canon, err := req.CanonicalJSON()
		if err != nil {
			t.Fatalf("accepted request has no canonical form: %v", err)
		}
		back, err := ParseRequest(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical JSON does not re-parse: %v\ncanonical: %s", err, canon)
		}
		hash2, err := back.Hash()
		if err != nil || hash2 != hash {
			t.Fatalf("canonical round trip changed the hash: %s -> %s (%v)\ninput: %q\ncanonical: %s",
				hash, hash2, err, in, canon)
		}
	})
}
