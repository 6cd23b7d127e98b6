package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one loaded, parsed, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Filenames  []string // parallel to Files
	Types      *types.Package
	Info       *types.Info
	// Errs collects parse and type errors. Analyzers tolerate partial
	// type information (go build is the authority on validity), but the
	// errors are kept for debugging.
	Errs []error
}

// Loader enumerates packages with `go list -json`, parses them with
// go/parser, and type-checks them with go/types. Module-internal
// packages are checked concurrently, one goroutine per package, joined
// along import edges; standard-library imports are resolved through the
// stdlib source importer. A Loader is safe for concurrent use and
// caches every package it checks.
type Loader struct {
	root string // directory go list runs in (any dir inside the module)
	fset *token.FileSet

	std   types.Importer
	stdMu sync.Mutex // srcimporter is not documented concurrency-safe

	mu      sync.Mutex
	nodes   map[string]*node
	modOnce sync.Once
	modPath string
}

type node struct {
	meta    listPkg
	done    chan struct{}
	pkg     *Package
	started bool
}

// NewLoader returns a loader rooted at dir (any directory inside the
// module; patterns are resolved relative to it).
func NewLoader(dir string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		root:  dir,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		nodes: map[string]*node{},
	}
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
}

func (l *Loader) goList(args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, args...)...)
	cmd.Dir = l.root
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(&out)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// modulePath returns the enclosing module's path ("ghost" here), used
// to tell module-internal import paths from standard-library ones.
func (l *Loader) modulePath() string {
	l.modOnce.Do(func() {
		cmd := exec.Command("go", "list", "-m", "-f", "{{.Path}}")
		cmd.Dir = l.root
		if out, err := cmd.Output(); err == nil {
			l.modPath = strings.TrimSpace(string(out))
		}
	})
	return l.modPath
}

func (l *Loader) isModulePath(path string) bool {
	mod := l.modulePath()
	return mod != "" && (path == mod || strings.HasPrefix(path, mod+"/"))
}

// Load resolves the patterns, type-checks every matched package (plus
// their module-internal dependencies), and returns the matched packages
// in `go list` order. Non-test files only: _test.go conventions (wall
// clocks, unordered assertions) are not sim-code conventions.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.goList(append([]string{"-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	// Create every node before starting any: a node's goroutine assumes
	// all of its module-internal deps already have nodes to join on.
	l.mu.Lock()
	var fresh []*node
	for _, meta := range listed {
		if meta.Standard || meta.ImportPath == "unsafe" {
			continue
		}
		if _, ok := l.nodes[meta.ImportPath]; ok {
			continue
		}
		n := &node{meta: meta, done: make(chan struct{})}
		l.nodes[meta.ImportPath] = n
		fresh = append(fresh, n)
	}
	for _, n := range fresh {
		if !n.started {
			n.started = true
			go l.check(n)
		}
	}
	l.mu.Unlock()

	var roots []*Package
	for _, meta := range listed {
		if meta.Standard || meta.DepOnly {
			continue
		}
		l.mu.Lock()
		n := l.nodes[meta.ImportPath]
		l.mu.Unlock()
		if n == nil {
			continue
		}
		<-n.done
		roots = append(roots, n.pkg)
	}
	return roots, nil
}

// check parses and type-checks one package, then releases its waiters.
func (l *Loader) check(n *node) {
	defer close(n.done)
	pkg := &Package{
		ImportPath: n.meta.ImportPath,
		Dir:        n.meta.Dir,
		Fset:       l.fset,
	}
	n.pkg = pkg
	for _, name := range n.meta.GoFiles {
		path := filepath.Join(n.meta.Dir, name)
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pkg.Errs = append(pkg.Errs, err)
		}
		if f != nil {
			pkg.Files = append(pkg.Files, f)
			pkg.Filenames = append(pkg.Filenames, path)
		}
	}
	// Join on module-internal deps first so the importer callback never
	// blocks mid-typecheck on a package this loader is racing to start.
	for _, imp := range n.meta.Imports {
		l.mu.Lock()
		dep := l.nodes[imp]
		l.mu.Unlock()
		if dep != nil {
			<-dep.done
		}
	}
	l.typecheck(pkg)
}

// typecheck runs go/types over an already-parsed package.
func (l *Loader) typecheck(pkg *Package) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer:    &pkgImporter{l: l, dir: pkg.Dir},
		FakeImportC: true,
		Error:       func(err error) { pkg.Errs = append(pkg.Errs, err) },
	}
	tp, err := conf.Check(pkg.ImportPath, l.fset, pkg.Files, info)
	if err != nil && len(pkg.Errs) == 0 {
		pkg.Errs = append(pkg.Errs, err)
	}
	pkg.Types = tp
	pkg.Info = info
}

// pkgImporter resolves imports during a type-check: module-internal
// paths join on the loader's per-package goroutines (loading on demand
// for paths not yet listed, which the fixture tests' LoadDir needs);
// everything else goes through the stdlib source importer.
type pkgImporter struct {
	l   *Loader
	dir string
}

func (pi *pkgImporter) Import(path string) (*types.Package, error) {
	return pi.ImportFrom(path, pi.dir, 0)
}

func (pi *pkgImporter) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	l := pi.l
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	l.mu.Lock()
	n := l.nodes[path]
	l.mu.Unlock()
	if n == nil && l.isModulePath(path) {
		if _, err := l.Load(path); err != nil {
			return nil, err
		}
		l.mu.Lock()
		n = l.nodes[path]
		l.mu.Unlock()
	}
	if n != nil {
		<-n.done
		if n.pkg.Types == nil {
			return nil, fmt.Errorf("package %s failed to type-check", path)
		}
		return n.pkg.Types, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	if from, ok := l.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, 0)
	}
	return l.std.Import(path)
}
