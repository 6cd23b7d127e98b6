package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// unreachableFixture is the module under testdata/unreachable, whose own
// go.mod bounds the check's module walk. Dependencies first.
var unreachableFixture = []fixtureDir{
	{"unreachable/lib", "ufix/lib"},
	{"unreachable/env", "ufix/env"},
	{"unreachable/cmd/app", "ufix/cmd/app"},
}

// TestUnreachableFixture pins the check's whole output on the fixture
// module: the dead functions are reported, and so is a function only a
// test calls; every kind of root and what it calls stays silent, and a
// root directive without a reason is a ghostlint diagnostic that roots
// nothing.
func TestUnreachableFixture(t *testing.T) {
	pkgs := loadFixtures(t, sharedLoader(), unreachableFixture)
	res := Run(pkgs, Analyzers())
	root := filepath.Join("testdata", "unreachable")
	var got []string
	for _, d := range res.Diagnostics {
		got = append(got, d.String(root))
	}
	const why = "no root reaches it; delete it, or mark it //ghostlint:root <reason>"
	want := []string{
		"env/api.go:18:6: unreachable: env.internalOnly: " + why,
		"lib/lib.go:68:6: unreachable: lib.TestOnly: " + why,
		"lib/lib.go:83:1: ghostlint: //ghostlint:root: a reason is required",
		"lib/lib.go:84:6: unreachable: lib.Bare: " + why,
		"lib/lib.go:87:6: unreachable: lib.Dead: " + why,
		"lib/lib.go:90:6: unreachable: lib.deadCallee: " + why,
		"lib/lib.go:93:15: unreachable: lib.(Square).Perimeter: " + why,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestUnreachablePartialLoad: without the fixture's main package the
// load is partial, and the check reports nothing.
func TestUnreachablePartialLoad(t *testing.T) {
	pkgs := loadFixtures(t, sharedLoader(), unreachableFixture[:2])
	res := Run(pkgs, []*Analyzer{UnreachableAnalyzer})
	for _, d := range res.Diagnostics {
		if d.Check == "unreachable" {
			t.Errorf("finding on a partial load: %s", d.String(""))
		}
	}
}
