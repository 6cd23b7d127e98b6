package analysis

import (
	"strings"
	"testing"
)

// taintFixture is the two-package interprocedural determinism fixture:
// the scoped root package is clean, the violations live in the unscoped
// helper package. Dependency first.
var taintFixture = []fixtureDir{
	{"taintutil", "fixturemod/taintutil"},
	{"taint", "fixturemod/internal/kernel/tfix"},
}

func TestTaintFixture(t *testing.T) {
	res := runFixtures(t, taintFixture, map[string]int{"determinism": 0})
	// The acceptance bar: a planted interprocedural violation is
	// reported with a full call path of at least two hops.
	foundDeep := false
	for _, d := range res.Diagnostics {
		if d.Check == "determinism" && strings.Count(d.Message, " -> ") >= 2 {
			foundDeep = true
		}
	}
	if !foundDeep {
		t.Errorf("no determinism diagnostic with a >=2-hop call path:\n%v", res.Diagnostics)
	}
}

// TestCallPathStability is the determinism guarantee for the linter
// itself: two independent loaders — one of which first loads unrelated
// real packages concurrently, perturbing FileSet registration order and
// goroutine interleaving — must produce byte-identical diagnostic
// strings, call paths included.
func TestCallPathStability(t *testing.T) {
	root := moduleRoot(t)

	render := func(l *Loader) []string {
		pkgs := loadFixtures(t, l, taintFixture)
		res := Run(pkgs, Analyzers())
		var out []string
		for _, d := range res.Diagnostics {
			out = append(out, d.String(root))
		}
		return out
	}

	a := render(NewLoader(root))

	l := NewLoader(root)
	// Perturb: register a batch of real packages (concurrently, via the
	// loader's one-goroutine-per-package checking) before the fixtures,
	// shifting every token.Pos base the fixture files get.
	if _, err := l.Load("./internal/sim", "./internal/stats", "./internal/hw"); err != nil {
		t.Fatal(err)
	}
	b := render(l)

	if len(a) == 0 {
		t.Fatal("no diagnostics rendered")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("diagnostics differ across loaders:\n--- fresh loader\n%s\n--- perturbed loader\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}

	// And the witness chain itself is the documented golden form.
	golden := "time.Now: wall-clock read in taintutil.wallNow, reachable from sim code: " +
		"tfix.Tick -> taintutil.Jitter (taint.go:11) -> taintutil.wallNow (util.go:15)"
	joined := strings.Join(a, "\n")
	if !strings.Contains(joined, golden) {
		t.Errorf("golden call-path diagnostic not found:\nwant substring: %s\ngot:\n%s", golden, joined)
	}
}
