package synth

import (
	"bytes"
	"os"
	"testing"
)

// FuzzParseMatrix: ParseMatrix reads baseline files and worker-returned
// artifacts, so it must never panic, and an accepted matrix must have a
// stable canonical encoding — EncodeJSON re-parses to bytes that encode
// identically, so a committed baseline diffs cleanly against a fresh run.
func FuzzParseMatrix(f *testing.F) {
	if blob, err := os.ReadFile("../../testdata/synth_baseline.json"); err == nil {
		f.Add(blob)
	}
	f.Add([]byte(`{"schema":"synth-matrix/1","bank":{"Rows":64,"Threshold":120},"cells":[{"mitigation":"para","threshold":120,"defeated":true,"min_budget":7,"payload":"payload/1 x\nACT 1\n","flips":4,"activations":9,"peak_disturbance":1.5,"evals":2}]}`))
	f.Add([]byte(`{"schema":"synth-matrix/1","bogus":1}`))
	f.Add([]byte(`{"schema":"other/2"}`))
	f.Add([]byte(`{"schema":"synth-matrix/1","cells":[{"payload":"<&>é"}]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := ParseMatrix(in)
		if err != nil {
			return
		}
		enc, err := m.EncodeJSON()
		if err != nil {
			t.Fatalf("accepted matrix does not encode: %v\ninput: %q", err, in)
		}
		back, err := ParseMatrix(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not re-parse: %v\nencoding: %s", err, enc)
		}
		enc2, err := back.EncodeJSON()
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not byte-identical (%v):\n%s\n%s", err, enc, enc2)
		}
	})
}
