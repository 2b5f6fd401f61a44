package faasmem

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fuzzTarget is one native fuzz target: its function name and the package
// directory it lives in, as a ./-relative path.
type fuzzTarget struct{ name, pkg string }

var (
	smokeLine = regexp.MustCompile(`-fuzz='\^(Fuzz\w*)\$\$'.*\s(\./\S+)\s*$`)
	fuzzFunc  = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)
)

// smokeTargets parses the Makefile's fuzz-smoke recipe into its targets.
func smokeTargets(t *testing.T, makefile string) []fuzzTarget {
	var got []fuzzTarget
	in := false
	for _, line := range strings.Split(makefile, "\n") {
		if strings.HasPrefix(line, "fuzz-smoke:") {
			in = true
			continue
		}
		if !in {
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			break
		}
		m := smokeLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("fuzz-smoke recipe line not understood: %q", line)
		}
		got = append(got, fuzzTarget{m[1], m[2]})
	}
	if !in {
		t.Fatal("Makefile has no fuzz-smoke target")
	}
	return got
}

// treeTargets finds every fuzz target in the test files under root.
func treeTargets(t *testing.T, root string) []fuzzTarget {
	var got []fuzzTarget
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			got = append(got, fuzzTarget{m[1], "./" + filepath.ToSlash(filepath.Dir(path))})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestFuzzSmokeCoversEveryTarget holds `make fuzz-smoke` to the tree: it
// must fuzz every fuzz target under internal/, in its own package, exactly
// once, and name no target that does not exist.
func TestFuzzSmokeCoversEveryTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	smoke := map[fuzzTarget]int{}
	for _, x := range smokeTargets(t, string(mk)) {
		if smoke[x]++; smoke[x] == 2 {
			t.Errorf("fuzz-smoke runs %s in %s twice", x.name, x.pkg)
		}
	}
	tree := treeTargets(t, "internal")
	for _, x := range tree {
		if smoke[x] == 0 {
			t.Errorf("fuzz target %s in %s is missing from fuzz-smoke", x.name, x.pkg)
		}
	}
	for x := range smoke {
		if !slices.Contains(tree, x) {
			t.Errorf("fuzz-smoke runs %s in %s, which has no such target", x.name, x.pkg)
		}
	}
	if len(tree) == 0 {
		t.Fatal("no fuzz targets found under internal/")
	}
}
