package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestRegistryNames pins the registry's naming contract: every name is
// unique and lowercase (Select lowercases its input, so an uppercase name
// could never be selected), and only fig15, whose rows are measured host
// times, is excluded from the determinism diff.
func TestRegistryNames(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if e.Name == "" || e.Name != strings.ToLower(e.Name) {
			t.Errorf("name %q is not lowercase", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate name %q", e.Name)
		}
		seen[e.Name] = true
		if e.WallClock != (e.Name == "fig15") {
			t.Errorf("%s: WallClock = %v", e.Name, e.WallClock)
		}
		if e.Run == nil {
			t.Errorf("%s: nil Run", e.Name)
		}
	}
}

func TestSelect(t *testing.T) {
	cases := []struct {
		name  string
		in    []string
		want  []string // nil means every registry name
		error string   // substring of the error, "" for none
	}{
		{"empty selects all", nil, nil, ""},
		{"mixed case and spaces", []string{" Fig4", "EXT-Merge "}, []string{"fig4", "ext-merge"}, ""},
		{"registry order, not input order", []string{"fig13", "fig1"}, []string{"fig1", "fig13"}, ""},
		{"duplicates collapse", []string{"fig9", "FIG9", "fig9"}, []string{"fig9"}, ""},
		{"unknown name", []string{"fig1", "fig99"}, nil, `unknown experiment "fig99" (options: fig1, fig2,`},
		{"blank name", []string{"fig1", ""}, nil, `unknown experiment ""`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Select(tc.in)
			if tc.error != "" {
				if err == nil || !strings.Contains(err.Error(), tc.error) {
					t.Fatalf("err = %v, want it to contain %q", err, tc.error)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := tc.want
			if want == nil {
				want = Names()
			}
			var names []string
			for _, e := range got {
				names = append(names, e.Name)
			}
			if !slices.Equal(names, want) {
				t.Fatalf("Select(%q) = %v, want %v", tc.in, names, want)
			}
		})
	}
}

// TestRegistryStdoutGolden pins the human-readable report of every
// deterministic registry entry at paper scale and seed 42: the concatenation
// of each entry's output followed by a blank line, exactly as
// `cmd/experiments -seed 42` prints it with fig15 (measured host times) left
// out. A change to any cell's format or to any entry's rows shows up as a
// diff. Run with -update to rewrite the golden file.
func TestRegistryStdoutGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "registry_stdout_golden.txt"), registryRun(42).stdout)
}

// sharedRun is one pass over every deterministic registry entry at one seed.
type sharedRun struct {
	once   sync.Once
	rows   map[string]any // each entry's rows by name; never mutated
	stdout []byte         // the entries' reports, each followed by a blank line
}

var sharedRuns sync.Map // seed → *sharedRun

// registryRun runs every non-wall-clock registry entry at paper scale and
// the given seed once per test binary, and returns the rows and report that
// the goldens, the claims table and the shape tests all read. Callers must
// not modify the rows.
func registryRun(seed int64) *sharedRun {
	v, _ := sharedRuns.LoadOrStore(seed, new(sharedRun))
	r := v.(*sharedRun)
	r.once.Do(func() {
		var out bytes.Buffer
		r.rows = map[string]any{}
		for _, e := range Registry {
			if e.WallClock {
				continue
			}
			r.rows[e.Name], _ = e.Run(&out, seed)
			fmt.Fprintln(&out)
		}
		r.stdout = out.Bytes()
	})
	return r
}

// sharedRows returns the seed-42 rows of the named registry entry from the
// shared run, typed as the entry returns them.
func sharedRows[R any](t *testing.T, name string) []R {
	t.Helper()
	rows, ok := registryRun(42).rows[name].([]R)
	if !ok {
		t.Fatalf("%s: rows are %T, not []%T", name, registryRun(42).rows[name], *new(R))
	}
	return rows
}
