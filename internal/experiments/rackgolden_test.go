package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// goldenEntries are the registry entries whose rows the golden file pins, in
// registry order: fig12, the single-node policy grid on the paper's main
// path, and every entry that simulates a rack sharing one memory pool.
var goldenEntries = []string{
	"fig12",
	"ext-rack", "ext-pool-density", "ext-merge",
	"ext-resilience", "ext-observe", "ext-drilldown",
}

// TestRackRowsGolden pins the paper-scale, seed-42 rows of fig12 and of
// every rack experiment. Each section is the entry's name followed by its
// rows exactly as `cmd/experiments -json` writes them, so a change to how the
// node grid or any rack is built, loaded or run shows up as a diff. Run with
// -update to rewrite the golden file.
func TestRackRowsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, name := range goldenEntries {
		fmt.Fprintf(&got, "== %s ==\n", name)
		enc := json.NewEncoder(&got)
		enc.SetIndent("", "  ")
		if err := enc.Encode(registryRun(42).rows[name]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	checkGolden(t, filepath.Join("testdata", "rack_rows_golden.txt"), got.Bytes())
}

// checkGolden compares got with the golden file at path line by line and
// fails at the first line that differs; with -update it first rewrites the
// file with got.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("output drifted from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
		}
	}
}
