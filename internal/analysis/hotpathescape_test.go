package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestEscapesFromOutput(t *testing.T) {
	out := strings.Join([]string{
		"# ghost/internal/sim",
		"internal/sim/engine.go:100:2: ev escapes to heap:",
		"  flow: {heap} = ev:",
		"    from e.evs = append(e.evs, ev) (assign) at internal/sim/engine.go:101:8",
		"internal/sim/engine.go:40:6: can inline (*Engine).Now",
		"internal/sim/engine.go:55:10: moved to heap: scratch",
		"/abs/path/thing.go:7:3: x escapes to heap",
		"not a diagnostic line",
	}, "\n")
	diags := EscapesFromOutput([]byte(out), "/root/mod")
	if len(diags) != 3 {
		t.Fatalf("parsed %d diagnostics, want 3: %+v", len(diags), diags)
	}
	if got := diags[0].Pos.Filename; got != "/root/mod/internal/sim/engine.go" {
		t.Errorf("relative path not rooted: %s", got)
	}
	if diags[0].Pos.Line != 100 || diags[0].Message != "ev escapes to heap" {
		t.Errorf("first diag = %+v", diags[0])
	}
	if diags[1].Message != "moved to heap: scratch" {
		t.Errorf("second diag = %+v", diags[1])
	}
	if diags[2].Pos.Filename != "/abs/path/thing.go" {
		t.Errorf("absolute path mangled: %s", diags[2].Pos.Filename)
	}
}

// escapeMarkerRe pulls the fabricated compiler messages out of the
// fixture's `// escape: <message>` comments.
var escapeMarkerRe = regexp.MustCompile(`// escape: (.+)$`)

func fixtureEscapes(pkg *Package) []EscapeDiag {
	var diags []EscapeDiag
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := escapeMarkerRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				pos.Column = 2
				diags = append(diags, EscapeDiag{Pos: pos, Message: m[1]})
			}
		}
	}
	return diags
}

func TestHotPathEscapeFixture(t *testing.T) {
	pkg, err := sharedLoader().LoadDir(filepath.Join("testdata", "hotpathescape"), "fixturemod/internal/sim/esfix")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pkg.Errs {
		t.Errorf("fixture load error: %v", e)
	}
	escapes := fixtureEscapes(pkg)
	if len(escapes) != 2 {
		t.Fatalf("fixture markers = %d, want 2", len(escapes))
	}

	prog := &Program{Pkgs: []*Package{pkg}, Escapes: escapes, EscapeBaseline: map[string]bool{}}
	res := RunProgram(prog, []*Analyzer{HotPathEscapeAnalyzer})
	if len(res.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %v, want exactly the reachable escape", res.Diagnostics)
	}
	d := res.Diagnostics[0]
	if d.Check != "hotpathescape" ||
		!strings.Contains(d.Message, "&Event{...} escapes to heap in esfix.(*Engine).grow") ||
		!strings.Contains(d.Message, "hot path: esfix.(*Engine).schedule -> esfix.(*Engine).grow") {
		t.Errorf("unexpected diagnostic: %s", d.String(""))
	}

	// The same escape recorded in the baseline is accepted...
	keys := EscapeKeys(prog)
	if len(keys) != 1 || !strings.Contains(keys[0], "grow") {
		t.Fatalf("EscapeKeys = %v", keys)
	}
	prog2 := &Program{Pkgs: []*Package{pkg}, Escapes: escapes, EscapeBaseline: map[string]bool{keys[0]: true}}
	res = RunProgram(prog2, []*Analyzer{HotPathEscapeAnalyzer})
	if len(res.Diagnostics) != 0 {
		t.Errorf("baselined escape still reported: %v", res.Diagnostics)
	}

	// ...and without build diagnostics the analyzer is silent (default
	// ghost-lint runs don't pay for a compile).
	res = RunProgram(&Program{Pkgs: []*Package{pkg}}, []*Analyzer{HotPathEscapeAnalyzer})
	if len(res.Diagnostics) != 0 {
		t.Errorf("analyzer reported without escape data: %v", res.Diagnostics)
	}
}

// TestRealTreeEscapeBaseline compiles the module and checks the
// committed baseline covers every current hot-path escape, as
// `ghost-lint -escape ./...` would.
func TestRealTreeEscapeBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module")
	}
	root := moduleRoot(t)
	escapes, err := LoadEscapes(root)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := LoadEscapeBaseline(filepath.Join(root, EscapeBaselinePath))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader(root).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{Pkgs: pkgs, Escapes: escapes, EscapeBaseline: baseline}
	res := RunProgram(prog, []*Analyzer{HotPathEscapeAnalyzer})
	for _, d := range res.Diagnostics {
		t.Errorf("hot-path escape not in baseline: %s", d.String(root))
	}
}
