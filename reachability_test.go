package idea

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachExempt is the only allowlist of TestProductionCodeHasProductionCallers:
// functions under internal/ kept although no production path reaches them.
// Keys are package.Receiver.Method (pointer receivers without the star).
var reachExempt = map[string]string{
	// The MemFS fault hooks: the crash, read-fault and torn-write tests
	// of lsm, core, query and the root package inject faults through them.
	"lsm.MemFS.FailWritesAfter": "fault hook",
	"lsm.MemFS.FailSyncs":       "fault hook",
	"lsm.MemFS.FailReads":       "fault hook",
	"lsm.MemFS.Corrupt":         "fault hook",
	"lsm.MemFS.Writes":          "fault hook",
	"lsm.MemFS.Crash":           "fault hook",
	// The tombstone path the crash model and the Model-2 patch tests drive.
	"lsm.Dataset.Delete":   "tombstone path",
	"lsm.Partition.Delete": "tombstone path",
	// EXPLAIN's text: the plan assertions of the query and root tests read it.
	"query.RowCursor.Plan": "plan text",
	// Called by tests of other packages, which cannot see a _test.go file.
	"query.EnrichPlan.Describe": "internal/core tests",
	"sqlpp.ParseExpr":           "internal/query tests",
	"lsm.Partition.Runs":        "internal/core tests",
	"adm.Arena.Cap":             "internal/core tests",
	"server.Server.ServeConn":   "driver tests",
	// The function-built native UDF the udf and internal/core tests
	// register; no production caller builds one.
	"udf.FuncInstance.Initialize": "internal/core tests",
	"udf.FuncInstance.Evaluate":   "internal/core tests",
}

// TestProductionCodeHasProductionCallers fails on every function, method
// and package-level variable under internal/ that no production path
// reaches. It type-checks the module's non-test files and bench/ (a
// module of its own that compiles against internal packages), then walks
// references from the roots:
//
//   - main and init functions, and everything bench/ declares;
//   - the exported API of the idea and driver packages;
//   - reachExempt.
//
// A call through an interface names no concrete method, so reaching a
// type reaches each method of it that implements a method of an
// interface the type satisfies.
//
// The standard library is imported from the export data `go list -export`
// reports, which is much faster than type-checking it from source.
func TestProductionCodeHasProductionCallers(t *testing.T) {
	const module = "github.com/ideadb/idea"
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
	stdImports := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		importPath := module
		if path != "." {
			importPath += "/" + filepath.ToSlash(path)
		}
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(path, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files[importPath] = append(files[importPath], af)
		}
		for _, imp := range bp.Imports {
			if !strings.HasPrefix(imp, module) && imp != "unsafe" {
				stdImports[imp] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	exports, err := stdExportData(stdImports)
	if err != nil {
		t.Fatal(err)
	}
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		if _, ok := files[path]; !ok {
			return stdImporter.Import(path)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		return pkg, nil
	}
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := imp(path); err != nil {
			t.Fatal(err)
		}
	}

	// The reference graph: each function, method and package-level
	// variable of the module, to the ones its body or initializer names.
	g := newRefGraph()
	var roots []types.Object
	for _, path := range paths {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
		isBench := rel == "bench" || strings.HasPrefix(rel, "bench/")
		isAPI := rel == "" || rel == "driver"
		isInternal := strings.HasPrefix(rel, "internal/")
		for _, f := range files[path] {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[decl.Name].(*types.Func)
					if isInternal {
						g.internal[obj] = decl.Pos()
					}
					g.refs(obj, decl, info)
					recv := receiver(obj)
					switch {
					case isBench,
						recv == nil && (obj.Name() == "init" || obj.Name() == "main" && obj.Pkg().Name() == "main"),
						isAPI && obj.Exported() && (recv == nil || recv.Obj().Exported()):
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							obj := info.Defs[ts.Name]
							g.refs(obj, ts, info)
							if isBench || isAPI && obj.Exported() {
								roots = append(roots, obj)
							}
							continue
						}
						vs, ok := spec.(*ast.ValueSpec)
						if !ok || decl.Tok != token.VAR {
							continue
						}
						for _, name := range vs.Names {
							obj := info.Defs[name]
							blank := name.Name == "_"
							if isInternal && !blank {
								g.internal[obj] = name.Pos()
							}
							g.refs(obj, vs, info)
							// A blank variable's initializer runs for its effect.
							if blank || isBench || isAPI && obj.Exported() {
								roots = append(roots, obj)
							}
						}
					}
				}
			}
		}
	}
	g.interfaceEdges(checked, info)
	g.walk(roots)

	// An exemption must name a declaration production code leaves
	// unreached; what it reaches in turn is reached too.
	byName := map[string]types.Object{}
	for obj := range g.internal {
		byName[qualifiedName(obj)] = obj
	}
	var exempt []types.Object
	for key := range reachExempt {
		switch obj, ok := byName[key]; {
		case !ok:
			t.Errorf("reachExempt: %s names no declaration under internal/", key)
		case g.reached[obj]:
			t.Errorf("reachExempt: production code reaches %s; drop its exemption", key)
		default:
			exempt = append(exempt, obj)
		}
	}
	g.walk(exempt)

	var dead []string
	for obj, pos := range g.internal {
		if !g.reached[obj] {
			p := fset.Position(pos)
			dead = append(dead, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, qualifiedName(obj)))
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d declarations under internal/ have no production caller; delete them, move them into a _test.go file, or give reachExempt a reason:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdExportData maps each of the given standard-library packages, and
// their dependencies, to its export data file.
func stdExportData(pkgs map[string]bool) (map[string]string, error) {
	args := []string{"list", "-deps", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for p := range pkgs {
		args = append(args, p)
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}

// refGraph is the reference graph over the module's declarations: from
// each function, method, type and package-level variable to the ones its
// declaration names. Reaching a type reaches the methods through which an
// interface can call it.
type refGraph struct {
	edges    map[types.Object][]types.Object
	internal map[types.Object]token.Pos // declarations under internal/
	reached  map[types.Object]bool
}

func newRefGraph() *refGraph {
	return &refGraph{
		edges:    map[types.Object][]types.Object{},
		internal: map[types.Object]token.Pos{},
		reached:  map[types.Object]bool{},
	}
}

// refs adds an edge from obj to every function, type and package-level
// variable node names.
func (g *refGraph) refs(from types.Object, node ast.Node, info *types.Info) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			g.edges[from] = append(g.edges[from], obj.Origin())
		case *types.TypeName:
			g.edges[from] = append(g.edges[from], obj)
		case *types.Var:
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				g.edges[from] = append(g.edges[from], obj)
			}
		}
		return true
	})
}

func (g *refGraph) walk(roots []types.Object) {
	stack := append([]types.Object(nil), roots...)
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if g.reached[obj] {
			continue
		}
		g.reached[obj] = true
		stack = append(stack, g.edges[obj]...)
	}
}

// interfaceEdges adds an edge from each of the module's named types to
// the methods in its method set, promoted ones included, that implement a
// method of an interface the type satisfies: one the type-checked
// packages or the packages they import declare, one written inline in
// the module's code, or error.
func (g *refGraph) interfaceEdges(checked map[string]*types.Package, info *types.Info) {
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
				ifaces = append(ifaces, it)
			}
		}
		for _, dep := range pkg.Imports() {
			visit(dep)
		}
	}
	for _, pkg := range checked {
		visit(pkg)
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.IsMethodSet() {
			ifaces = append(ifaces, it)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	for _, pkg := range checked {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if named.TypeParams().Len() > 0 {
				// A generic type's methods go with the type.
				for i := 0; i < named.NumMethods(); i++ {
					g.edges[tn] = append(g.edges[tn], named.Method(i))
				}
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
						g.edges[tn] = append(g.edges[tn], sel.Obj())
					}
				}
			}
		}
	}
}

// receiver returns the named type fn is a method of, or nil for a
// function.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// qualifiedName spells obj as package.Receiver.Name.
func qualifiedName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := receiver(fn); recv != nil {
			return obj.Pkg().Name() + "." + recv.Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
