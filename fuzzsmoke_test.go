package faasmem

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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

// module is the module path of the repository's root go.mod.
const module = "github.com/faasmem/faasmem"

// modulePath is the import path of the package in module-relative dir.
func modulePath(dir string) string {
	if dir == "." {
		return module
	}
	return module + "/" + dir
}

// parseTree parses every Go file under root, skipping testdata and dot
// directories, into one FileSet, so a token.Pos names one place in the tree.
func parseTree(t *testing.T, root string) (*token.FileSet, []goFile) {
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
			imports[name] = strings.TrimPrefix(p, module+"/")
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
	return fset, files
}

// TestEveryReaderIsFuzzed fails when an exported Read*, Parse*, Decode* or
// Load* function under internal/ that takes an io.Reader, []byte or string
// is named in no Fuzz function and is not in unfuzzedReaders, so every
// reader of outside input has a fuzz target that calls it.
func TestEveryReaderIsFuzzed(t *testing.T) {
	readers := map[string]bool{}
	named := map[string]bool{}
	_, files := parseTree(t, "internal")
	for _, gf := range files {
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
// file uses, keyed by package directory and name (Type.Method for a method).
// An entry whose name is used, or no longer declared, fails
// TestEveryExportedNameIsUsed.
var unusedExports = map[string]string{
	"internal/faultinject.FromWindows":                   "tests in faas, rmem, core and experiments build fault plans with it",
	"internal/memnode.Node.TenantLogicalBytes":           "sharedmem tests check copy-on-write charges with it",
	"internal/telemetry/timeseries.Recorder.FlightTotal": "experiments tests check the flight recorder with it",
	"internal/telemetry/timeseries.Recorder.Buckets":     "experiments' TestSinksCoherent holds every /metrics latency le count to it",
	"internal/simtime.Engine.Pending":                    "the event-queue depth probe; the engine benchmarks and policy tests read it",
}

// stdInterfaces are the standard-library interfaces whose methods the
// standard library calls on the module's values, where no module code
// names them: fmt's verbs, error values, encoding/json, flag parsing and
// math/rand. A method implementing one of them is used.
var stdInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"", "error"}, // the universe scope
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"flag", "Value"},
	{"math/rand", "Source"},
}

// exportedDecl is one exported name declared in a non-test file under
// internal/, with the declaration node whose extent does not count as a use.
type exportedDecl struct {
	pkg, recv string     // recv is empty for a package-level name
	id        *ast.Ident // the declaring identifier
	node      ast.Node
}

// key names d as unusedExports does.
func (d exportedDecl) key() string {
	if d.recv == "" {
		return d.pkg + "." + d.id.Name
	}
	return d.pkg + "." + d.recv + "." + d.id.Name
}

// exportedDecls lists the exported funcs, methods (of exported types, an
// exported interface's own methods included), types, consts and vars that
// f declares.
func exportedDecls(gf goFile) []exportedDecl {
	var out []exportedDecl
	add := func(recv string, id *ast.Ident, node ast.Node) {
		if id.IsExported() {
			out = append(out, exportedDecl{gf.dir, recv, id, node})
		}
	}
	for _, decl := range gf.f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add("", d.Name, d)
				break
			}
			if id := recvType(d); id.IsExported() {
				add(id.Name, d.Name, d)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add("", s.Name, s)
					if it, ok := s.Type.(*ast.InterfaceType); ok && s.Name.IsExported() {
						for _, m := range it.Methods.List {
							for _, id := range m.Names {
								add(s.Name.Name, id, m)
							}
						}
					}
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

// recvType is the identifier naming fn's receiver type, stripped of its
// pointer and type parameters.
func recvType(fn *ast.FuncDecl) *ast.Ident {
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	return recv.(*ast.Ident)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// typeCheckModule type-checks every non-test package of the module, the
// bench/ module's included, each after the module packages it imports; the
// standard library comes from importer.Default. It returns the non-test
// files and one Info holding every package's definitions and uses.
func typeCheckModule(t *testing.T) ([]goFile, *types.Info, types.Importer) {
	fset, all := parseTree(t, ".")
	var files []goFile
	byPath := map[string][]*ast.File{}
	for _, gf := range all {
		if !gf.test {
			files = append(files, gf)
			byPath[modulePath(gf.dir)] = append(byPath[modulePath(gf.dir)], gf.f)
		}
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	std := importer.Default()
	checked := map[string]*types.Package{}
	var check func(path string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if byPath[path] != nil {
			return check(path)
		}
		return std.Import(path)
	})}
	check = func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		pkg, err := conf.Check(path, fset, byPath[path], info)
		checked[path] = pkg
		return pkg, err
	}
	for path := range byPath {
		if _, err := check(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}
	return files, info, std
}

// origin is the generic declaration behind obj, or obj itself, so a use of
// an instantiated type's method or field resolves to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// TestEveryExportedNameIsUsed fails when an exported func, method, type,
// const or var declared in a non-test file under internal/ has no use
// outside its own declaration in any non-test file of the module (cmd/,
// examples/ and the bench/ module included) and is not in unusedExports, so
// test-only helpers live in _test.go files and dead API is deleted. Uses
// are resolved by go/types: a use names the declared object itself (a
// method of an instantiated generic type resolves to the generic one), a
// method's own receiver is not a use of its type, and a concrete method is
// used when a used interface method it implements is, or when it
// implements one of stdInterfaces.
func TestEveryExportedNameIsUsed(t *testing.T) {
	files, info, std := typeCheckModule(t)
	receivers := map[token.Pos]bool{} // receiver type identifiers
	var decls []exportedDecl
	for _, gf := range files {
		if strings.HasPrefix(gf.dir, "internal/") {
			decls = append(decls, exportedDecls(gf)...)
		}
		for _, decl := range gf.f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				receivers[recvType(fn).Pos()] = true
			}
		}
	}
	uses := map[types.Object][]token.Pos{}
	ifaceUses := map[*types.Func]bool{} // used interface methods
	for id, obj := range info.Uses {
		if receivers[id.Pos()] {
			continue
		}
		obj = origin(obj)
		uses[obj] = append(uses[obj], id.Pos())
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceUses[fn] = true
			}
		}
	}
	for _, s := range stdInterfaces {
		scope := types.Universe
		if s.pkg != "" {
			pkg, err := std.Import(s.pkg)
			if err != nil {
				t.Fatal(err)
			}
			scope = pkg.Scope()
		}
		iface := scope.Lookup(s.name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			ifaceUses[iface.Method(i)] = true
		}
	}
	// implements reports whether method m of a concrete type implements
	// the interface method im.
	implements := func(m, im *types.Func) bool {
		if m.Name() != im.Name() {
			return false
		}
		recv := m.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
			return false
		}
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
	}
	used := func(d exportedDecl) bool {
		obj := info.Defs[d.id]
		for _, p := range uses[obj] {
			if p < d.node.Pos() || p >= d.node.End() {
				return true
			}
		}
		if m, ok := obj.(*types.Func); ok && d.recv != "" {
			for im := range ifaceUses {
				if implements(m, im) {
					return true
				}
			}
		}
		return false
	}
	listed := map[string]bool{}
	for _, d := range decls {
		if used(d) {
			continue
		}
		if _, ok := unusedExports[d.key()]; ok {
			listed[d.key()] = true
			continue
		}
		t.Errorf("%s has no use outside tests: delete it or move it into an _test.go file", d.key())
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
// (cmd/, examples/ and the bench/ module included), so a knob no run turns
// is a named constant instead.
// It reads syntax only: a field is set by a key of a composite literal of
// its type (an elided element type included), or by an assignment to any
// selector of its name (or to an element of one), except one through a
// receiver or parameter of a config type of the assigning package, which
// fills a default (withDefaults, a constructor).
func TestEveryConfigFieldIsSet(t *testing.T) {
	_, files := parseTree(t, ".")
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
	for typ, names := range fields {
		for _, name := range names {
			if key := typ + "." + name; !set[key] && !assigned[name] {
				t.Errorf("%s is set by no non-test file: make it a named constant", key)
			}
		}
	}
}
