package faasmem

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
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

// unfuzzedReaders are the input readers no fuzz target has to name, keyed by
// package directory and function name.
var unfuzzedReaders = map[string]string{
	"internal/trace.Load":                         "path wrapper of Read",
	"internal/trace.LoadAzureCSV":                 "path wrapper of ReadAzureCSV",
	"internal/workload.LoadProfiles":              "path wrapper of ReadProfiles",
	"internal/drilldown.ReadRun":                  "path wrapper of ParseRun",
	"internal/telemetry/span.ReadChromeTraceFile": "path wrapper of ReadChromeTrace",
	"internal/telemetry/chrome.Decode":            "reached through span.ReadChromeTrace",
	"internal/memnode.ParseMergeScope":            "takes an enum name, not a file",
}

var readerName = regexp.MustCompile(`^(Read|Parse|Decode|Load)`)

// takesInput reports whether fn has an io.Reader, []byte or string
// parameter: bytes from outside the program, or the path of a file of them.
func takesInput(fn *ast.FuncDecl) bool {
	for _, p := range fn.Type.Params.List {
		switch t := p.Type.(type) {
		case *ast.SelectorExpr:
			if x, ok := t.X.(*ast.Ident); ok && x.Name == "io" && t.Sel.Name == "Reader" {
				return true
			}
		case *ast.ArrayType:
			if e, ok := t.Elt.(*ast.Ident); ok && t.Len == nil && e.Name == "byte" {
				return true
			}
		case *ast.Ident:
			if t.Name == "string" {
				return true
			}
		}
	}
	return false
}

// TestEveryReaderIsFuzzed fails when an exported Read*, Parse*, Decode* or
// Load* function under internal/ that takes an io.Reader, []byte or string
// is named in no Fuzz function and is not in unfuzzedReaders, so every
// reader of outside input has a fuzz target that calls it.
func TestEveryReaderIsFuzzed(t *testing.T) {
	const module = "github.com/faasmem/faasmem/"
	readers := map[string]bool{}
	named := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(file string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		imports := map[string]string{} // local name → package directory
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, module)
		}
		test := strings.HasSuffix(file, "_test.go")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Body == nil {
				continue
			}
			switch {
			case test && strings.HasPrefix(fn.Name.Name, "Fuzz"):
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.SelectorExpr:
						if pkg, ok := x.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
							named[imports[pkg.Name]+"."+x.Sel.Name] = true
							return false
						}
					case *ast.Ident:
						named[dir+"."+x.Name] = true
					}
					return true
				})
			case !test && fn.Name.IsExported() && readerName.MatchString(fn.Name.Name) && takesInput(fn):
				readers[dir+"."+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range readers {
		if _, ok := unfuzzedReaders[r]; !ok && !named[r] {
			t.Errorf("reader %s is named by no Fuzz function", r)
		}
	}
	for r := range unfuzzedReaders {
		if !readers[r] {
			t.Errorf("unfuzzedReaders lists %s, which is not a reader under internal/", r)
		}
	}
}
