package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/drilldown"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// writeRunFile captures one faulted quick scenario as a run-file envelope,
// the exact shape `timeline -quick -exemplars -format json` writes.
func writeRunFile(t *testing.T, path string, seed int64) []byte {
	t.Helper()
	exm := exemplar.NewRecorder(exemplar.Config{Window: 10 * time.Second, K: 3})
	spec := cliSpec()
	spec.DurationSec, spec.MeanGapSec, spec.Seed = 3*60, 5, seed
	spec.FaultIntensity, spec.FaultSeed = 1, 1
	rec := runTimelineScenario(liveSpec(spec, false), 10*time.Second, exm)
	data, err := json.MarshalIndent(drilldown.Run{
		Timeline:  timeseries.TakeSnapshot(rec),
		Exemplars: exm.Cells(),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunFileDeterministicAndDiffClean pins the drill-down acceptance pair:
// identical seeds produce byte-identical run files, and diffing them in
// process reports zero regressions (the CI determinism step shells the same
// check through the built binary).
func TestRunFileDeterministicAndDiffClean(t *testing.T) {
	dir := t.TempDir()
	a := writeRunFile(t, filepath.Join(dir, "a.json"), 1)
	b := writeRunFile(t, filepath.Join(dir, "b.json"), 1)
	if !bytes.Equal(a, b) {
		t.Fatal("identical-seed run files differ byte for byte")
	}

	runA, err := drilldown.ReadRun(filepath.Join(dir, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	runB, err := drilldown.ReadRun(filepath.Join(dir, "b.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep := drilldown.Diff(runA, runB, 0)
	if rep.Regressions != 0 || len(rep.Windows) != 0 {
		t.Fatalf("identical-seed diff not clean: %+v", rep)
	}
	if rep.Aligned == 0 {
		t.Fatal("no windows aligned")
	}

	// A different seed must move something — the diff is not vacuously clean.
	writeRunFile(t, filepath.Join(dir, "c.json"), 9)
	runC, err := drilldown.ReadRun(filepath.Join(dir, "c.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep := drilldown.Diff(runA, runC, 0); len(rep.Windows) == 0 && len(rep.FlowTotals) == 0 {
		t.Error("cross-seed diff shows no movement at all")
	}
}

// TestExplainCommand exercises the explain subcommand end to end on a real
// run file, both output formats.
func TestExplainCommand(t *testing.T) {
	dir := t.TempDir()
	runPath := filepath.Join(dir, "run.json")
	writeRunFile(t, runPath, 1)

	jsonOut := filepath.Join(dir, "explain.json")
	explainMain([]string{runPath, "-format", "json", "-o", jsonOut})
	data, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var ex drilldown.Explanation
	if err := json.Unmarshal(data, &ex); err != nil {
		t.Fatal(err)
	}
	if !ex.AutoPicked || ex.Summary == nil {
		t.Errorf("explanation = %+v, want auto-picked with a summary row", ex)
	}
	// The spike window may or may not contain ledger rows, but the run-level
	// conservation verdict always rides along.
	if ex.FlowAudit == nil || !ex.FlowAudit.OK {
		t.Errorf("flow audit = %+v, want attached and clean", ex.FlowAudit)
	}

	// Flags may follow the positional path or precede it.
	textOut := filepath.Join(dir, "explain.txt")
	explainMain([]string{"-window", "0", "-o", textOut, runPath})
	text, err := os.ReadFile(textOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(text) == 0 {
		t.Fatal("text explanation empty")
	}
}

// TestDiffCommand exercises the diff subcommand on identical run files (must
// return without exiting) and checks the JSON report shape.
func TestDiffCommand(t *testing.T) {
	dir := t.TempDir()
	runPath := filepath.Join(dir, "run.json")
	writeRunFile(t, runPath, 1)

	out := filepath.Join(dir, "diff.json")
	diffMain([]string{runPath, runPath, "-format", "json", "-o", out})
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep drilldown.DiffReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 || rep.Aligned == 0 {
		t.Errorf("self-diff report = %+v", rep)
	}
}

func TestSplitRunArgs(t *testing.T) {
	for _, tc := range []struct {
		argv  []string
		max   int
		paths []string
		rest  []string
	}{
		{[]string{"a.json", "-window", "3"}, 1, []string{"a.json"}, []string{"-window", "3"}},
		{[]string{"-window", "3", "a.json"}, 1, nil, []string{"-window", "3", "a.json"}},
		{[]string{"a.json", "b.json", "-threshold", "0.2"}, 2, []string{"a.json", "b.json"}, []string{"-threshold", "0.2"}},
		{[]string{"a.json", "b.json", "c.json"}, 2, []string{"a.json", "b.json"}, []string{"c.json"}},
		{nil, 2, nil, nil},
	} {
		paths, rest := splitRunArgs(tc.argv, tc.max)
		if !reflect.DeepEqual(paths, tc.paths) || !reflect.DeepEqual(rest, tc.rest) {
			t.Errorf("splitRunArgs(%v, %d) = %v, %v; want %v, %v",
				tc.argv, tc.max, paths, rest, tc.paths, tc.rest)
		}
	}
}
