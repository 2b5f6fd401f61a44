package drilldown

import (
	"encoding/json"
	"io"
	"testing"
)

// FuzzParseRun feeds arbitrary bytes to the run-file parser, then drives
// what faasmem-stat does with an accepted run: explain its worst window,
// render that and its exemplars, and diff the run against itself. None of
// it may panic, and an accepted run must hold a window or an exemplar.
func FuzzParseRun(f *testing.F) {
	run := testRun()
	envelope, err := json.Marshal(run)
	if err != nil {
		f.Fatal(err)
	}
	bare, err := json.Marshal(run.Timeline)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(envelope)
	f.Add(bare)
	f.Add([]byte(`{"hello": 1}`))
	f.Add([]byte(`{"timeline": {"summary": [{"window": -5}]}, "exemplars": [{}]}`))
	f.Add([]byte(`{"exemplars": [{"top": [{"latency": -1}]}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := ParseRun(data)
		if err != nil {
			return
		}
		if !runPopulated(run) {
			t.Fatal("accepted a run with no window and no exemplar")
		}
		if ex, err := Explain(run, -1); err == nil {
			if err := WriteExplainText(io.Discard, ex); err != nil {
				t.Fatalf("render explanation: %v", err)
			}
		}
		if err := WriteExemplarsText(io.Discard, run.Exemplars); err != nil {
			t.Fatalf("render exemplars: %v", err)
		}
		rep := Diff(run, run, 0)
		if err := WriteDiffText(io.Discard, rep); err != nil {
			t.Fatalf("render diff: %v", err)
		}
	})
}
