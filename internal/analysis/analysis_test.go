package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}

// sharedLoader caches one Loader across the test binary: the stdlib
// source importer's work (fmt, sort, go/ast, ...) is paid once.
var sharedLoader = sync.OnceValue(func() *Loader { return NewLoader(".") })

// wantRe matches one expectation inside a fixture comment:
//
//	// want <check> "<message substring>"
//
// Multiple expectations may share one comment (and one line).
var wantRe = regexp.MustCompile(`want (\w+) "([^"]*)"`)

type expectation struct {
	line   int
	check  string
	substr string
	hit    bool
}

func collectWants(pkg *Package) []*expectation {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					wants = append(wants, &expectation{
						line:   pkg.Fset.Position(c.Pos()).Line,
						check:  m[1],
						substr: m[2],
					})
				}
			}
		}
	}
	return wants
}

// fixtureDir names one testdata directory and the import path it is
// type-checked under.
type fixtureDir struct{ dir, importPath string }

// loadFixtures loads testdata packages in order (dependencies first, so
// cross-fixture imports resolve through the loader's registry).
func loadFixtures(t *testing.T, l *Loader, dirs []fixtureDir) []*Package {
	t.Helper()
	var pkgs []*Package
	for _, fd := range dirs {
		pkg, err := l.LoadDir(filepath.Join("testdata", fd.dir), fd.importPath)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", fd.dir, err)
		}
		for _, e := range pkg.Errs {
			t.Errorf("fixture %s: load error: %v", fd.dir, e)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// checkFixtureResult matches a run's diagnostics against the fixtures'
// `want` annotations, exactly.
func checkFixtureResult(t *testing.T, pkgs []*Package, res *Result, wantSuppressed map[string]int) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(pkg)...)
	}
	for _, d := range res.Diagnostics {
		matched := false
		for _, w := range wants {
			if !w.hit && w.line == d.Pos.Line && w.check == d.Check && strings.Contains(d.Message, w.substr) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d.String(""))
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("missing diagnostic at line %d: %s %q", w.line, w.check, w.substr)
		}
	}
	for check, n := range wantSuppressed {
		if got := res.Suppressed[check]; got != n {
			t.Errorf("suppressed[%s] = %d, want %d", check, got, n)
		}
	}
}

// runFixtures loads the testdata packages and checks their combined
// diagnostics against the `want` annotations.
func runFixtures(t *testing.T, dirs []fixtureDir, wantSuppressed map[string]int) *Result {
	t.Helper()
	pkgs := loadFixtures(t, sharedLoader(), dirs)
	res := Run(pkgs, Analyzers())
	checkFixtureResult(t, pkgs, res, wantSuppressed)
	return res
}

// runFixture is the single-package form.
func runFixture(t *testing.T, dir, importPath string, wantSuppressed map[string]int) {
	t.Helper()
	runFixtures(t, []fixtureDir{{dir, importPath}}, wantSuppressed)
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determinism", "fixturemod/internal/kernel/dfix", map[string]int{"determinism": 1})
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, "maporder", "fixturemod/mfix", map[string]int{"maporder": 1})
}

func TestHotPathAllocFixture(t *testing.T) {
	runFixture(t, "hotpathalloc", "fixturemod/hfix", map[string]int{"hotpathalloc": 1})
}

func TestHotPathAllocMsgRingFixture(t *testing.T) {
	runFixture(t, "hotpathallocmsg", "fixturemod/internal/ghostcore/mfix", map[string]int{"hotpathalloc": 1})
}

func TestEventHandleFixture(t *testing.T) {
	runFixture(t, "eventhandle", "fixturemod/efix", map[string]int{"eventhandle": 1})
}

func TestAPISurfaceFixture(t *testing.T) {
	runFixture(t, "apisurface", "fixturemod/ghost", map[string]int{"apisurface": 1})
}

func TestMalformedDirectives(t *testing.T) {
	pkg, err := sharedLoader().LoadDir(filepath.Join("testdata", "malformed"), "fixturemod/badfix")
	if err != nil {
		t.Fatal(err)
	}
	res := Run([]*Package{pkg}, Analyzers())
	if got := res.Found["ghostlint"]; got != 3 {
		t.Fatalf("ghostlint diagnostics = %d, want 3:\n%v", got, res.Diagnostics)
	}
	var msgs []string
	for _, d := range res.Diagnostics {
		if d.Check != "ghostlint" {
			t.Errorf("unexpected diagnostic: %s", d.String(""))
		}
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, frag := range []string{"unknown check", "reason is required", "missing check name"} {
		if !strings.Contains(joined, frag) {
			t.Errorf("malformed-directive diagnostics missing %q:\n%s", frag, joined)
		}
	}
}

// TestSelfClean runs the suite over its own package: the linter must
// hold itself to the conventions it enforces.
func TestSelfClean(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := NewLoader(root).Load("./internal/analysis", "./internal/cli", "./cmd/ghost-lint")
	if err != nil {
		t.Fatal(err)
	}
	res := Run(pkgs, Analyzers())
	for _, d := range res.Diagnostics {
		t.Errorf("finding in the analysis suite itself: %s", d.String(root))
	}
}

// TestTreeClean asserts the whole module is at zero findings, as
// `ghost-lint ./...` would; with TestRealTreeEscapeBaseline it is the
// lint step of scripts/verify.sh.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree type-check; the full test run checks it")
	}
	root := moduleRoot(t)
	pkgs, err := NewLoader(root).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	res := Run(pkgs, Analyzers())
	for _, d := range res.Diagnostics {
		t.Errorf("tree not lint-clean: %s", d.String(root))
	}
}

// TestLoaderConcurrent exercises the loader's one-goroutine-per-package
// type-checking from concurrent Load calls sharing one Loader; the race
// detector (go test -race) is the assertion that matters.
func TestLoaderConcurrent(t *testing.T) {
	root := moduleRoot(t)
	l := NewLoader(root)
	patterns := [][]string{
		{"./internal/sim"},
		{"./internal/stats"},
		{"./internal/hw"},
		{"./internal/sim", "./internal/hw"},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(patterns))
	for i, pats := range patterns {
		wg.Add(1)
		go func(i int, pats []string) {
			defer wg.Done()
			pkgs, err := l.Load(pats...)
			if err == nil && len(pkgs) != len(pats) {
				err = fmt.Errorf("loaded %d packages for %v", len(pkgs), pats)
			}
			errs[i] = err
		}(i, pats)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent Load(%v): %v", patterns[i], err)
		}
	}
	// The cache must hand back the same checked package.
	a, err := l.Load("./internal/sim")
	if err != nil || len(a) != 1 || a[0].Types == nil {
		t.Fatalf("reload: pkgs=%v err=%v", a, err)
	}
	if len(a[0].Errs) > 0 {
		t.Errorf("internal/sim loaded with errors: %v", a[0].Errs)
	}
}

func TestByNameAndScope(t *testing.T) {
	for _, a := range Analyzers() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not resolve", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("unknown analyzer resolved")
	}
	for path, want := range map[string]bool{
		"ghost/internal/kernel":         true,
		"ghost/internal/sim":            true,
		"ghost/internal/policies/sub":   true,
		"ghost/internal/trace":          false,
		"ghost/internal/experiments":    false,
		"ghost/cmd/ghost-sim":           false,
		"ghost/internal/simulator":      false,
		"fixturemod/internal/kernel/fx": true,
		"env":                           true,
		"ghost/env":                     true,
		"ghost/envelope":                false,
	} {
		if got := inDeterminismScope(path); got != want {
			t.Errorf("inDeterminismScope(%q) = %v, want %v", path, got, want)
		}
	}
	for path, want := range map[string]bool{
		"ghost":                 true,
		"ghost/env":             true,
		"fixturemod/ghost":      true,
		"ghost/internal/kernel": false,
		"ghost/internal/env":    false,
		"ghost/cmd/ghost-sim":   false,
		"ghost/envelope":        false,
		"ghost/examples/tuned":  false,
	} {
		if got := inAPISurfaceScope(path); got != want {
			t.Errorf("inAPISurfaceScope(%q) = %v, want %v", path, got, want)
		}
	}
}
