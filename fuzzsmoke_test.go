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

// goFile is one parsed Go file of the module.
type goFile struct {
	dir     string // its package directory, slash-separated, module-relative
	test    bool   // a _test.go file
	f       *ast.File
	imports map[string]string // local name → imported path, module-relative for the module's own packages
}

// parseTree parses every Go file under root, skipping testdata and dot
// directories, into one FileSet, so a token.Pos names one place in the tree.
func parseTree(t *testing.T, root string) []goFile {
	const module = "github.com/faasmem/faasmem/"
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, module)
		}
		files = append(files, goFile{
			dir:     filepath.ToSlash(filepath.Dir(file)),
			test:    strings.HasSuffix(file, "_test.go"),
			f:       f,
			imports: imports,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestEveryReaderIsFuzzed fails when an exported Read*, Parse*, Decode* or
// Load* function under internal/ that takes an io.Reader, []byte or string
// is named in no Fuzz function and is not in unfuzzedReaders, so every
// reader of outside input has a fuzz target that calls it.
func TestEveryReaderIsFuzzed(t *testing.T) {
	readers := map[string]bool{}
	named := map[string]bool{}
	for _, gf := range parseTree(t, "internal") {
		for _, decl := range gf.f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Body == nil {
				continue
			}
			switch {
			case gf.test && strings.HasPrefix(fn.Name.Name, "Fuzz"):
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.SelectorExpr:
						if pkg, ok := x.X.(*ast.Ident); ok && gf.imports[pkg.Name] != "" {
							named[gf.imports[pkg.Name]+"."+x.Sel.Name] = true
							return false
						}
					case *ast.Ident:
						named[gf.dir+"."+x.Name] = true
					}
					return true
				})
			case !gf.test && fn.Name.IsExported() && readerName.MatchString(fn.Name.Name) && takesInput(fn):
				readers[gf.dir+"."+fn.Name.Name] = true
			}
		}
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

// unusedExports are the exported names under internal/ that no non-test
// file uses, keyed by package directory and name (Type.Method for a method;
// a receiver of * stands for every type in the package). An entry whose
// name is used, or no longer declared, fails TestEveryExportedNameIsUsed.
var unusedExports = map[string]string{
	"internal/faultinject.FromWindows":                   "tests in faas, rmem, core and experiments build fault plans with it",
	"internal/fastswap.Device.ClusterReads":              "faas and experiments tests check readahead with it",
	"internal/memnode.Node.TenantLogicalBytes":           "sharedmem tests check copy-on-write charges with it",
	"internal/telemetry/timeseries.Recorder.FlightTotal": "experiments tests check the flight recorder with it",
	"internal/simtime.Engine.Pending":                    "the event-queue depth probe; the engine benchmarks and policy tests read it",
	"internal/workload.*.MarshalJSON":                    "json.Marshaler, called by encoding/json",
	"internal/workload.*.UnmarshalJSON":                  "json.Unmarshaler, called by encoding/json",
}

// exportedDecl is one exported name declared in a non-test file under
// internal/, with the declaration node whose extent does not count as a use.
type exportedDecl struct {
	pkg, recv, name string // recv is empty for a package-level name
	node            ast.Node
}

// key names d as unusedExports does.
func (d exportedDecl) key(recv string) string {
	if recv == "" {
		return d.pkg + "." + d.name
	}
	return d.pkg + "." + recv + "." + d.name
}

// exportedDecls lists the exported funcs, methods (of exported types),
// types, consts and vars that f declares.
func exportedDecls(gf goFile) []exportedDecl {
	var out []exportedDecl
	add := func(recv string, id *ast.Ident, node ast.Node) {
		if id.IsExported() {
			out = append(out, exportedDecl{gf.dir, recv, id.Name, node})
		}
	}
	for _, decl := range gf.f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add("", d.Name, d)
				break
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch r := recv.(type) {
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
				add(id.Name, d.Name, d)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add("", s.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add("", id, s)
					}
				}
			}
		}
	}
	return out
}

// TestEveryExportedNameIsUsed fails when an exported func, method, type,
// const or var declared in a non-test file under internal/ has no use
// outside its own declaration in any non-test file of the module (cmd/,
// examples/ and the bench/ module included) and is not in unusedExports, so
// test-only helpers live in _test.go files and dead API is deleted. It
// reads syntax only: a package-level name is used where its package
// qualifies it, or bare in its own package; a method is used wherever any
// selector names it, whatever the receiver; a method's own receiver is not a
// use of its type.
func TestEveryExportedNameIsUsed(t *testing.T) {
	var decls []exportedDecl
	uses := map[string][]token.Pos{}      // package dir + "." + name → its uses
	selectors := map[string][]token.Pos{} // name after a non-package selector → its uses
	for _, gf := range parseTree(t, ".") {
		if gf.test {
			continue
		}
		if strings.HasPrefix(gf.dir, "internal/") {
			decls = append(decls, exportedDecls(gf)...)
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				ast.Inspect(x.Type, visit)
				if x.Body != nil {
					ast.Inspect(x.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && gf.imports[pkg.Name] != "" {
					key := gf.imports[pkg.Name] + "." + x.Sel.Name
					uses[key] = append(uses[key], x.Sel.Pos())
					return false
				}
				selectors[x.Sel.Name] = append(selectors[x.Sel.Name], x.Sel.Pos())
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				key := gf.dir + "." + x.Name
				uses[key] = append(uses[key], x.Pos())
			}
			return true
		}
		ast.Inspect(gf.f, visit)
	}
	used := func(d exportedDecl) bool {
		pos := uses[d.pkg+"."+d.name]
		if d.recv != "" {
			pos = selectors[d.name]
		}
		for _, p := range pos {
			if p < d.node.Pos() || p >= d.node.End() {
				return true
			}
		}
		return false
	}
	listed := map[string]bool{}
	for _, d := range decls {
		if used(d) {
			continue
		}
		key := d.key(d.recv)
		if _, ok := unusedExports[key]; !ok && d.recv != "" {
			key = d.key("*")
		}
		if _, ok := unusedExports[key]; ok {
			listed[key] = true
			continue
		}
		t.Errorf("%s has no use outside tests: delete it or move it into an _test.go file", d.key(d.recv))
	}
	for key := range unusedExports {
		if !listed[key] {
			t.Errorf("unusedExports lists %s, which is used or no longer declared", key)
		}
	}
}

// configExempt are the *Config structs whose fields no production caller
// has to set: the compared policies' parameters, which sweeps perturb.
var configExempt = map[string]bool{
	"internal/core.Config":        true,
	"internal/policy.TMOConfig":   true,
	"internal/policy.DAMONConfig": true,
}

// unsetConfigFields are the exported *Config fields under internal/ that no
// non-test file sets, keyed by package directory, type and field. An entry
// whose field is set, or no longer declared, fails TestEveryConfigFieldIsSet.
var unsetConfigFields = map[string]string{
	"internal/faas.Config.MaxContainersPerFunction": "gates scale-out queueing, which faas tests and the reconcile invariant exercise",
	"internal/fastswap.Config.Slots":                "gates a finite swapfile, which fastswap and faas tests exercise",
}

// typeKey names the type t spells in gf as "dir.Name", or "" if t is not a
// (pointer to a) named type of the module.
func typeKey(gf goFile, t ast.Expr) string {
	switch x := t.(type) {
	case *ast.StarExpr:
		return typeKey(gf, x.X)
	case *ast.Ident:
		return gf.dir + "." + x.Name
	case *ast.SelectorExpr:
		if pkg, ok := x.X.(*ast.Ident); ok && gf.imports[pkg.Name] != "" {
			return gf.imports[pkg.Name] + "." + x.Sel.Name
		}
	}
	return ""
}

// TestEveryConfigFieldIsSet fails when an exported field of an exported
// *Config struct under internal/ is set by no non-test file of the module
// (cmd/, examples/ and the bench/ module included) and is not in
// unsetConfigFields, so a knob no run turns is a named constant instead.
// It reads syntax only: a field is set by a key of a composite literal of
// its type (an elided element type included), or by an assignment to any
// selector of its name (or to an element of one), except one through a
// receiver or parameter of a config type of the assigning package, which
// fills a default (withDefaults, a constructor).
func TestEveryConfigFieldIsSet(t *testing.T) {
	files := parseTree(t, ".")
	fields := map[string][]string{} // "dir.Type" → its exported field names
	for _, gf := range files {
		if gf.test || !strings.HasPrefix(gf.dir, "internal/") {
			continue
		}
		for _, decl := range gf.f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				key := gf.dir + "." + ts.Name.Name
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") || configExempt[key] {
					continue
				}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.IsExported() {
							fields[key] = append(fields[key], id.Name)
						}
					}
				}
			}
		}
	}
	set := map[string]bool{}      // "dir.Type.Field" set by a composite literal key
	assigned := map[string]bool{} // field name assigned through a selector
	for _, gf := range files {
		if gf.test {
			continue
		}
		var lit func(n ast.Node, elem string) bool
		lit = func(n ast.Node, elem string) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			typ, inner := elem, ""
			if cl.Type != nil {
				typ = typeKey(gf, cl.Type)
				switch x := cl.Type.(type) {
				case *ast.ArrayType:
					inner = typeKey(gf, x.Elt)
				case *ast.MapType:
					inner = typeKey(gf, x.Value)
				}
			}
			for _, e := range cl.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && inner == "" {
						set[typ+"."+id.Name] = true
					}
					e = kv.Value
				}
				ast.Inspect(e, func(n ast.Node) bool { return lit(n, inner) })
			}
			return false
		}
		ast.Inspect(gf.f, func(n ast.Node) bool { return lit(n, "") })
		for _, decl := range gf.f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// Receivers and parameters of a config type of this package:
			// assigning their fields fills defaults (withDefaults, a
			// constructor), it does not set them.
			own := map[string]bool{}
			params := fn.Type.Params.List
			if fn.Recv != nil {
				params = append(fn.Recv.List[:1:1], params...)
			}
			for _, p := range params {
				if typ := typeKey(gf, p.Type); fields[typ] != nil && strings.HasPrefix(typ, gf.dir+".") {
					for _, id := range p.Names {
						own[id.Name] = true
					}
				}
			}
			target := func(lhs ast.Expr) {
				for {
					ix, ok := lhs.(*ast.IndexExpr)
					if !ok {
						break
					}
					lhs = ix.X
				}
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					return
				}
				if id, ok := sel.X.(*ast.Ident); ok && own[id.Name] {
					return
				}
				assigned[sel.Sel.Name] = true
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(x.X)
				}
				return true
			})
		}
	}
	if len(fields) == 0 {
		t.Fatal("no *Config structs found under internal/")
	}
	declared := map[string]bool{}
	for typ, names := range fields {
		for _, name := range names {
			key := typ + "." + name
			declared[key] = true
			isSet := set[key] || assigned[name]
			_, listed := unsetConfigFields[key]
			switch {
			case !isSet && !listed:
				t.Errorf("%s is set by no non-test file: make it a named constant", key)
			case isSet && listed:
				t.Errorf("unsetConfigFields lists %s, which a non-test file sets", key)
			}
		}
	}
	for key := range unsetConfigFields {
		if !declared[key] {
			t.Errorf("unsetConfigFields lists %s, which is no exported *Config field under internal/", key)
		}
	}
}
