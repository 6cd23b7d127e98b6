package experiments

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ghost/internal/ghostcore"
	"ghost/internal/sim"
)

var quick = Options{Quick: true, Seed: 1}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "table3", "table4",
		"fig5", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b", "fig8",
		"fig8-ablation", "fig9", "group-commit", "bpf-fastpath",
	}
	for _, id := range want {
		if ByID(id) == nil {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Fatalf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
	if ByID("nope") != nil {
		t.Fatal("unknown id resolved")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "b"}}
	r.AddRow("1", "2")
	r.Notef("hello %d", 7)
	s := r.String()
	for _, frag := range []string{"== x: t ==", "a", "1", "note: hello 7"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("rendering missing %q:\n%s", frag, s)
		}
	}
}

// cell parses a numeric report cell.
func cell(t *testing.T, rep *Report, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(rep.Rows[row][col], "x"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, rep.Rows[row][col], err)
	}
	return v
}

func TestTable2Counts(t *testing.T) {
	rep := runTable2(quick)
	if len(rep.Rows) < 8 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[2] == "0" {
			t.Errorf("component %q counted as 0 LOC (path wrong?)", row[0])
		}
	}
}

// TestTable2OutsideTree: run from a directory with no go.mod above it,
// table2 prints n/a, not 0, for every count, and says why.
func TestTable2OutsideTree(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if moduleRoot() != "" {
		t.Skip("the temporary directory lies inside a ghost module")
	}
	rep := runTable2(quick)
	for _, row := range rep.Rows {
		if row[2] != "n/a" {
			t.Errorf("component %q counted %q outside the source tree, want n/a", row[0], row[2])
		}
	}
	if !strings.Contains(rep.String(), "need the source tree") {
		t.Errorf("no note explains the n/a counts:\n%s", rep)
	}
}

func TestTable3Shapes(t *testing.T) {
	rep := runTable3(quick)
	get := func(row int) float64 { return cell(t, rep, row, 3) }
	localDelivery := get(0)
	globalDelivery := get(1)
	if globalDelivery >= localDelivery {
		t.Fatalf("global delivery (%v) not cheaper than local (%v)", globalDelivery, localDelivery)
	}
	// Local delivery includes a wakeup context switch: must exceed 410ns.
	if localDelivery < 410 || localDelivery > 1500 {
		t.Fatalf("local delivery = %v ns, want ~725", localDelivery)
	}
	if globalDelivery < 100 || globalDelivery > 600 {
		t.Fatalf("global delivery = %v ns, want ~265", globalDelivery)
	}
	// Remote e2e = IPI target cost + minimal switch.
	if e2e := get(5); e2e < 1200 || e2e > 2500 {
		t.Fatalf("remote e2e = %v ns, want ~1474", e2e)
	}
	// Group e2e exceeds single e2e (batched IPIs take longer per target).
	if get(8) <= get(5) {
		t.Fatal("group e2e not larger than single")
	}
	// CFS context switch measured = 599 by construction.
	if sw := get(11); sw != 599 {
		t.Fatalf("CFS switch = %v, want 599", sw)
	}
}

func TestFig5Shape(t *testing.T) {
	rep := runFig5(quick)
	// Skylake's rate column (Mtxns/s), in sweep order.
	var sk []float64
	for i, row := range rep.Rows {
		if row[0] == "skylake" {
			sk = append(sk, cell(t, rep, i, 2)*1e6)
		}
	}
	if len(sk) < 4 {
		t.Fatalf("too few points: %d", len(sk))
	}
	first, last := sk[0], sk[len(sk)-1]
	if first >= last {
		t.Fatalf("no ramp: first %.0f last %.0f", first, last)
	}
	// Plateau near the paper's ~2M txns/s.
	if max := slices.Max(sk); max < 1.2e6 || max > 4e6 {
		t.Fatalf("peak rate = %.2fM, want ~2M", max/1e6)
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rep := runFig6(quick, false)
	// Rows: 3 loads x 3 systems, in system-major order.
	loads := len(fig6Loads(true))
	p99 := func(sysIdx, loadIdx int) float64 { return cell(t, rep, sysIdx*loads+loadIdx, 3) }
	hi := loads - 1
	shinjuku, ghost, cfs := p99(0, hi), p99(1, hi), p99(2, hi)
	// CFS's lack of preemption blows up its tail at high load.
	if cfs < 5*ghost {
		t.Fatalf("CFS p99 (%v) not clearly worse than ghOSt (%v) at high load", cfs, ghost)
	}
	// ghOSt stays within an order of magnitude of the dedicated data
	// plane (paper: within ~5%; our simulated gap is modest).
	if ghost > 10*shinjuku {
		t.Fatalf("ghost p99 (%v) >> shinjuku (%v)", ghost, shinjuku)
	}
	// Everyone achieves the low offered load.
	if thr := cell(t, rep, 0, 2); thr < 45 {
		t.Fatalf("shinjuku low-load throughput = %v kreq/s", thr)
	}
}

func TestFig6cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rep := runFig6c(quick)
	loads := len(fig6Loads(true))
	share := func(sysIdx, loadIdx int) float64 { return cell(t, rep, sysIdx*loads+loadIdx, 2) }
	// Shinjuku: zero share at every load (dedicated cores).
	for l := 0; l < loads; l++ {
		if s := share(0, l); s != 0 {
			t.Fatalf("shinjuku batch share = %v at load %d", s, l)
		}
	}
	// ghOSt: meaningful share at low load, decreasing with load.
	if s := share(1, 0); s < 0.2 {
		t.Fatalf("ghost low-load batch share = %v, want > 0.2", s)
	}
	if share(1, loads-1) >= share(1, 0) {
		t.Fatal("ghost batch share did not taper with load")
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rep := runFig7(quick, false)
	// Rows: mq-64B, mq-64kB, ghost-64B, ghost-64kB; cols p50..p99.99.
	p := func(row, col int) float64 { return cell(t, rep, row, col) }
	// Medians within a sane band and similar between schedulers.
	for _, row := range []int{0, 2} {
		if v := p(row, 2); v < 5 || v > 60 {
			t.Fatalf("64B p50 = %v us", v)
		}
	}
	for _, row := range []int{1, 3} {
		if v := p(row, 2); v < 20 || v > 150 {
			t.Fatalf("64kB p50 = %v us", v)
		}
	}
	// 64kB is slower than 64B under both schedulers.
	if p(1, 2) <= p(0, 2) || p(3, 2) <= p(2, 2) {
		t.Fatal("64kB not slower than 64B")
	}
	// Medians within 50% of each other across schedulers.
	if r := p(2, 2) / p(0, 2); r < 0.5 || r > 1.5 {
		t.Fatalf("64B p50 ratio ghost/mq = %.2f", r)
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rep := runFig8(quick)
	// Rows: per query type: QPS then p99. Col 4 is the ghOSt/CFS ratio.
	qpsA, p99A := cell(t, rep, 0, 4), cell(t, rep, 1, 4)
	qpsB, p99B := cell(t, rep, 2, 4), cell(t, rep, 3, 4)
	_, p99C := cell(t, rep, 4, 4), cell(t, rep, 5, 4)
	if qpsA < 0.95 || qpsA > 1.05 || qpsB < 0.95 || qpsB > 1.05 {
		t.Fatalf("QPS parity broken: A %.2f B %.2f", qpsA, qpsB)
	}
	// ghOSt's tail advantage for A and B (paper: 0.55-0.6x).
	if p99A > 0.8 {
		t.Fatalf("type A p99 ratio = %.2f, want < 0.8", p99A)
	}
	if p99B > 0.8 {
		t.Fatalf("type B p99 ratio = %.2f, want < 0.8", p99B)
	}
	// Type C parity.
	if p99C < 0.7 || p99C > 1.3 {
		t.Fatalf("type C p99 ratio = %.2f, want ~1.0", p99C)
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rep := runTable4(quick)
	viol := func(row int) float64 { return cell(t, rep, row, 3) }
	rate := func(row int) float64 { return cell(t, rep, row, 1) }
	if viol(0) == 0 {
		t.Fatal("CFS shows no isolation violations; contrast broken")
	}
	if viol(1) != 0 || viol(2) != 0 {
		t.Fatalf("core schedulers violated isolation: %v %v", viol(1), viol(2))
	}
	// Core scheduling costs some throughput but not more than ~20%.
	for _, row := range []int{1, 2} {
		r := rate(row) / rate(0)
		if r > 1.01 || r < 0.80 {
			t.Fatalf("row %d rate ratio vs CFS = %.2f", row, r)
		}
	}
}

func TestGroupCommitShape(t *testing.T) {
	rep := runGroupCommit(quick)
	// Per-txn cost decreases with group size.
	first := cell(t, rep, 0, 2)
	last := cell(t, rep, len(rep.Rows)-1, 2)
	if last >= first {
		t.Fatalf("no amortization: %v -> %v", first, last)
	}
	// Throughput ceiling grows.
	if cell(t, rep, len(rep.Rows)-1, 3) <= cell(t, rep, 0, 3) {
		t.Fatal("throughput ceiling did not grow with batching")
	}
}

func TestBPFFastpathShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rep := runBPFFastpath(quick)
	off, on := cell(t, rep, 0, 4), cell(t, rep, 1, 4)
	if off != 0 {
		t.Fatalf("BPF commits without BPF = %v", off)
	}
	if on == 0 {
		t.Fatal("BPF fastpath never engaged")
	}
	// Latency with BPF must not be worse.
	if cell(t, rep, 1, 2) > cell(t, rep, 0, 2)*1.2 {
		t.Fatalf("BPF made p99 worse: %v vs %v", rep.Rows[1][2], rep.Rows[0][2])
	}
}

// TestFig8AblationRuns checks the §4.4 locality ablation's shape: NUMA
// placement recovers type A throughput and tails, CCX placement lowers
// the type B tail further.
func TestFig8AblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rep := runFig8Ablation(quick)
	// Rows: no-locality, numa-only, numa+ccx, numa+ccx+hold. Columns:
	// A, B and C p99 (µs), then A QPS.
	const noLoc, numa, ccx = 0, 1, 2
	const p99A, p99B, qpsA = 1, 2, 4
	// §4.4: every variant serves its offered type A load; locality
	// shows in the tail latencies, not in throughput.
	for row := range rep.Rows {
		if r := cell(t, rep, row, qpsA) / cell(t, rep, ccx, qpsA); r < 0.99 || r > 1.01 {
			t.Fatalf("%s A QPS = %.3f× numa+ccx's, want within 1%% (every variant keeps up with its load)", rep.Rows[row][0], r)
		}
	}
	if a, b := cell(t, rep, numa, p99A), cell(t, rep, noLoc, p99A); a >= b {
		t.Fatalf("numa-only A p99 %.0fµs, want below no-locality's %.0fµs", a, b)
	}
	if a, b := cell(t, rep, ccx, p99B), cell(t, rep, numa, p99B); a >= b {
		t.Fatalf("numa+ccx B p99 %.0fµs, want below numa-only's %.0fµs", a, b)
	}
}

// TestFig9Shape: §3.4's robustness claims at quick scale. Upgrades hand
// off within 50 µs and miss no SLO; a crash falls back to CFS at once,
// and an upgrade whose successor never attaches falls back exactly one
// upgrade timeout later.
func TestFig9Shape(t *testing.T) {
	rep := runFig9(quick)
	// Rows: upgrades, crash, failed-upgrade. Columns: events, handoff
	// p50 and p99 (µs), missed/completed short requests, CFS fallback
	// (ms before the end of the run).
	const upgrades, crash, failed = 0, 1, 2
	const events, handoff99, missed, fallback = 1, 3, 4, 5
	if n := cell(t, rep, upgrades, events); n != 10 {
		t.Errorf("upgrades = %v, want 10", n)
	}
	if p99 := cell(t, rep, upgrades, handoff99); p99 > 50 {
		t.Errorf("handoff p99 = %vµs, want <= 50", p99)
	}
	if m := rep.Rows[upgrades][missed]; !strings.HasPrefix(m, "0/") {
		t.Errorf("upgrades missed SLO %s, want 0", m)
	}
	timeout := float64(ghostcore.DefaultUpgradeTimeout) / float64(sim.Millisecond)
	if d := cell(t, rep, crash, fallback) - cell(t, rep, failed, fallback); d != timeout {
		t.Errorf("crash fallback - failed-upgrade fallback = %vms, want %vms", d, timeout)
	}
	causes := []error{ghostcore.ErrAgentCrash, ghostcore.ErrUpgradeTimeout}
	if len(rep.Notes) < len(causes) {
		t.Fatalf("%d notes, want a destroy note per fallback: %q", len(rep.Notes), rep.Notes)
	}
	for i, cause := range causes {
		if !strings.Contains(rep.Notes[i], cause.Error()) {
			t.Errorf("note %d = %q, want it to name %q", i, rep.Notes[i], cause)
		}
	}
}

func TestDeterministicReports(t *testing.T) {
	a := runFig5(quick).String()
	b := runFig5(quick).String()
	if a != b {
		t.Fatal("fig5 not deterministic across runs")
	}
}

func TestRunJobsOrdering(t *testing.T) {
	jobs := make([]Job, 100)
	for i := range jobs {
		i := i
		jobs[i] = Job{Name: "j", Run: func() any { return i }}
	}
	for _, par := range []int{1, 2, 4, 16, 200} {
		got := RunJobs(par, jobs)
		if len(got) != len(jobs) {
			t.Fatalf("parallel=%d: %d results, want %d", par, len(got), len(jobs))
		}
		for i, v := range got {
			if v.(int) != i {
				t.Fatalf("parallel=%d: out[%d] = %v, want %d (submission order)", par, i, v, i)
			}
		}
	}
}

func TestRunJobsEmpty(t *testing.T) {
	if got := RunJobs(4, nil); len(got) != 0 {
		t.Fatalf("RunJobs(4, nil) = %v", got)
	}
}

func TestOptionsParallelism(t *testing.T) {
	if got := (Options{Parallel: 3}).Parallelism(); got != 3 {
		t.Fatalf("Parallelism = %d, want 3", got)
	}
	if got := (Options{}).Parallelism(); got < 1 {
		t.Fatalf("default Parallelism = %d, want >= 1", got)
	}
}

// The tentpole invariant: a report is byte-identical whatever the worker
// pool size, because results are collected in submission order and each
// simulation is deterministic for its seed.
func TestParallelReportsIdentical(t *testing.T) {
	for _, id := range []string{"fig5", "table3", "group-commit"} {
		e := ByID(id)
		if e == nil {
			t.Fatalf("experiment %q not registered", id)
		}
		serial := e.Run(Options{Quick: true, Seed: 1, Parallel: 1}).String()
		for _, par := range []int{4, 0} { // 0 = GOMAXPROCS
			if got := e.Run(Options{Quick: true, Seed: 1, Parallel: par}).String(); got != serial {
				t.Errorf("%s: report at parallel=%d differs from serial:\n--- serial ---\n%s\n--- parallel=%d ---\n%s",
					id, par, serial, par, got)
			}
		}
	}
}

// TestFig5CrossRunIdentical is the cross-run complement of
// TestParallelReportsIdentical: the same experiment run twice in the
// same process with the same seed must produce byte-identical reports,
// both serially and with a worker pool. A report that is stable across
// pool sizes but drifts across runs would point at leaked process
// state (package-level maps, a shared rand, pooled buffers).
func TestFig5CrossRunIdentical(t *testing.T) {
	e := ByID("fig5")
	if e == nil {
		t.Fatal(`experiment "fig5" not registered`)
	}
	var baseline string
	for _, par := range []int{1, 8} {
		opts := Options{Quick: true, Seed: 1, Parallel: par}
		first := e.Run(opts).String()
		second := e.Run(opts).String()
		if first != second {
			t.Errorf("fig5: back-to-back runs at parallel=%d differ:\n--- first ---\n%s\n--- second ---\n%s",
				par, first, second)
		}
		if baseline == "" {
			baseline = first
		} else if first != baseline {
			t.Errorf("fig5: report at parallel=%d differs from the serial run:\n--- parallel=1 ---\n%s\n--- parallel=%d ---\n%s",
				par, baseline, par, first)
		}
	}
}
