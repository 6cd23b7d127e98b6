package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// UnreachableAnalyzer reports every declared module function that no
// root reaches over the call graph: code that changes no result and is
// kept only by inertia. The roots are everything that can run without a
// call the graph sees:
//
//   - every main and init, and every function or function literal named
//     in a package-level var initializer;
//   - the exported functions and methods the facade packages (ghost and
//     ghost/env) declare, which is the surface
//     testdata/api_surface.golden pins;
//   - methods that implement an exported interface of an imported
//     standard-library package, or error (String, Error, heap.Interface,
//     types.ImporterFrom: the standard library calls them);
//   - every function or method whose name appears in a .go file of a
//     nested module (cmd/ghost-perf builds against the facade from its
//     own module). Those files are parsed, not type-checked, so one name
//     roots every function of that name;
//   - a function whose doc comment carries //ghostlint:root <reason>.
//
// Tests root nothing: _test.go files are neither loaded nor parsed, so a
// function that only tests reach is reported like any other. Delete it,
// move it into a _test.go file of its package, or give it a root whose
// reason names the paper entry it implements.
//
// The check is whole-program only: when any non-test package directory
// of the module (outside testdata and nested modules) was not loaded, it
// reports nothing, so `ghost-lint ./internal/sim` stays quiet.
var UnreachableAnalyzer = &Analyzer{
	Name:       "unreachable",
	Doc:        "flags declared functions that no main, init, package-level var, facade export, standard-library interface, nested-module name or //ghostlint:root reaches (tests root nothing)",
	RunProgram: runUnreachable,
}

func runUnreachable(p *ProgramPass) {
	if len(p.Prog.Pkgs) == 0 {
		return
	}
	names, ok := unloadedNames(p.Prog.Pkgs)
	if !ok {
		return
	}
	std := stdMethods(p.Prog.Pkgs)
	g := p.Prog.Graph()
	roots := varInitRoots(g)
	for _, n := range g.Nodes {
		if n.Decl != nil && isRoot(n, names, std) {
			roots = append(roots, n)
		}
	}
	r := Reach(roots, nil)
	for _, n := range g.Nodes {
		if n.Decl != nil && n.Decl.Name.Name != "_" && !r.Has(n) {
			p.Reportf(n.Decl.Name.Pos(), "%s: no root reaches it; delete it, or mark it //ghostlint:root <reason>", n.Label)
		}
	}
}

// isRoot reports whether a declared function is a root by itself.
func isRoot(n *FuncNode, names map[string]bool, std map[string][]*types.Interface) bool {
	fd, fn := n.Decl, n.Obj
	name := fd.Name.Name
	if names[name] || hasRootDirective(fd.Doc) {
		return true
	}
	facade := fn.Exported() && inAPISurfaceScope(n.Pkg.ImportPath)
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return facade || name == "init" || name == "main" && n.Pkg.Types.Name() == "main"
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if facade && named.Obj().Exported() {
		return true
	}
	for _, iface := range std[name] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// unloadedNames walks the module enclosing the loaded packages and
// returns every identifier spelled in the non-test .go files of nested
// modules, which the loader does not type-check. _test.go files are
// skipped: tests root nothing. ok is false when the load is partial,
// that is when a non-test package directory outside testdata and nested
// modules was not loaded.
func unloadedNames(pkgs []*Package) (names map[string]bool, ok bool) {
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		dir, err := filepath.Abs(pkg.Dir)
		if err != nil {
			return nil, false
		}
		loaded[dir] = true
	}
	root := moduleRootOf(pkgs[0].Dir)
	if root == "" {
		return nil, false
	}
	names = map[string]bool{}
	partial := false
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if moduleRootOf(filepath.Dir(path)) == root {
			partial = !loaded[filepath.Dir(path)]
			if partial {
				return filepath.SkipAll
			}
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names[id.Name] = true
			}
			return true
		})
		return nil
	})
	return names, err == nil && !partial
}

// moduleRootOf returns the nearest directory at or above dir that holds
// a go.mod, "" if none.
func moduleRootOf(dir string) string {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// stdMethods maps each method name to the interfaces that declare it:
// error, and the exported interfaces of every imported package that is
// not itself loaded.
func stdMethods(pkgs []*Package) map[string][]*types.Interface {
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		loaded[pkg.ImportPath] = true
	}
	out := map[string][]*types.Interface{}
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			out[iface.Method(i).Name()] = append(out[iface.Method(i).Name()], iface)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			if loaded[imp.Path()] || seen[imp] {
				continue
			}
			seen[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
						add(iface)
					}
				}
			}
		}
	}
	return out
}

// varInitRoots returns every function named anywhere in a package-level
// var initializer, function literal bodies included: the initializer
// runs at program start, and the graph has no node for it.
func varInitRoots(g *CallGraph) []*FuncNode {
	var roots []*FuncNode
	for _, pkg := range g.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					ast.Inspect(gd, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && g.NodeOf(fn.Origin()) != nil {
								roots = append(roots, g.NodeOf(fn.Origin()))
							}
						}
						return true
					})
				}
			}
		}
	}
	return roots
}
