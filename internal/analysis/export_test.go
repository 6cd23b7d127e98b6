package analysis

import (
	"go/parser"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadDir parses and type-checks the .go files in one directory under
// the given import path, without consulting `go list` for the directory
// itself. The analyzer test fixtures live in testdata/ (invisible to go
// list patterns) and are loaded through this; their imports of real
// module packages and of the standard library resolve normally. The
// checked package is registered under its import path, so a later
// LoadDir can import an earlier one — multi-package fixtures load their
// dependency directories first. A path already registered returns the
// cached package.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	l.mu.Lock()
	if n, ok := l.nodes[importPath]; ok {
		l.mu.Unlock()
		<-n.done
		return n.pkg, nil
	}
	n := &node{done: make(chan struct{}), started: true}
	l.nodes[importPath] = n
	l.mu.Unlock()
	defer close(n.done)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	pkg := &Package{ImportPath: importPath, Dir: dir, Fset: l.fset}
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, path)
	}
	l.typecheck(pkg)
	n.pkg = pkg
	return pkg, nil
}
