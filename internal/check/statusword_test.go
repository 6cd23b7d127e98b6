package check

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/snap"
)

// fullScanStatusWord is the status-word oracle as it was before the
// OnCpu index: every switch-in rescans every thread of every live
// enclave. TestStatusWordIndexMatchesFullScan holds the index to it.
type fullScanStatusWord struct{ *statusWordOracle }

func (o fullScanStatusWord) SwitchIn(cpu *kernel.CPU, t *kernel.Thread) {
	// The embedded oracle is never seeded, so its Tseq and Installed
	// fold nothing.
	for _, e := range o.c.Ghost().Enclaves() {
		var byCPU map[hw.CPUID][]kernel.TID
		for _, th := range e.Threads() {
			sw := e.StatusWord(th)
			if sw == nil || !sw.OnCPU {
				continue
			}
			if th.State() != kernel.StateRunning {
				o.c.Reportf(o, "enc%d thread %d status word claims OnCpu (cpu%d) but state is %v",
					e.ID(), th.TID(), sw.CPU, th.State())
			}
			if byCPU == nil {
				byCPU = make(map[hw.CPUID][]kernel.TID)
			}
			byCPU[sw.CPU] = append(byCPU[sw.CPU], th.TID())
		}
		if byCPU == nil {
			continue
		}
		cpus := make([]int, 0, len(byCPU))
		for swCPU := range byCPU {
			cpus = append(cpus, int(swCPU))
		}
		sort.Ints(cpus)
		for _, swCPU := range cpus {
			if tids := byCPU[hw.CPUID(swCPU)]; len(tids) > 1 {
				o.c.Reportf(o, "enc%d: %d threads claim OnCpu for cpu%d: %v",
					e.ID(), len(tids), swCPU, tids)
			}
		}
	}
}

// useFullScan makes Default build the full-scan reference instead of the
// indexed status-word oracle until the returned func runs.
func useFullScan() (restore func()) {
	prev := newStatusWord
	newStatusWord = func() Oracle { return fullScanStatusWord{newStatusWordOracle()} }
	return func() { newStatusWord = prev }
}

// twinStatusWord runs the indexed status-word oracle and the full-scan
// reference side by side on one machine. Both only read the machine, so
// neither changes what the other sees. The indexed one reports through
// the run's Checker; the reference reports through a Checker of its own.
type twinStatusWord struct {
	*statusWordOracle
	ref fullScanStatusWord
}

func (o *twinStatusWord) attach(c *Checker) {
	o.statusWordOracle.attach(c)
	o.ref.attach(&Checker{k: c.k, g: c.g})
}

func (o *twinStatusWord) Tseq(e *ghostcore.Enclave, t *kernel.Thread, old, new uint64, mt ghostcore.MsgType) {
	o.statusWordOracle.Tseq(e, t, old, new, mt)
	o.ref.Tseq(e, t, old, new, mt)
}

func (o *twinStatusWord) SwitchIn(cpu *kernel.CPU, t *kernel.Thread) {
	o.statusWordOracle.SwitchIn(cpu, t)
	o.ref.SwitchIn(cpu, t)
}

func (o *twinStatusWord) Latched(e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread, c ghostcore.Commit) {
	o.statusWordOracle.Latched(e, cpu, t, c)
	o.ref.Latched(e, cpu, t, c)
}

func (o *twinStatusWord) Unlatched(e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread, why string) {
	o.statusWordOracle.Unlatched(e, cpu, t, why)
	o.ref.Unlatched(e, cpu, t, why)
}

func (o *twinStatusWord) Installed(e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread) {
	o.statusWordOracle.Installed(e, cpu, t)
	o.ref.Installed(e, cpu, t)
}

// indexedAndFullScan runs run once with a twin status-word oracle in
// Default's set, and fails unless the indexed oracle's violations match
// the full-scan reference's message for message. The run's Checker
// stops collecting at maxViolations, counting the other oracles' reports
// too; the reference's list is then compared up to where the run's
// stopped. It returns the number of status-word violations whose message
// contains sub.
func indexedAndFullScan(t *testing.T, name, sub string, run func() []Violation) int {
	t.Helper()
	var twin *twinStatusWord
	prev := newStatusWord
	newStatusWord = func() Oracle {
		twin = &twinStatusWord{newStatusWordOracle(), fullScanStatusWord{newStatusWordOracle()}}
		return twin
	}
	all := run()
	newStatusWord = prev
	var got []Violation
	for _, v := range all {
		if v.Oracle == "status-word" {
			got = append(got, v)
		}
	}
	want := twin.ref.c.Violations()
	if len(all) == maxViolations && len(want) > len(got) {
		want = want[:len(got)]
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: indexed oracle diverged from the full scan:\nindexed:   %v\nfull scan: %v", name, got, want)
	}
	n := 0
	for _, v := range got {
		if strings.Contains(v.Msg, sub) {
			n++
		}
	}
	return n
}

// TestStatusWordIndexMatchesFullScan: the status-word oracle's OnCpu
// index reports exactly what a rescan of every thread on every switch-in
// reports, over generated seeds, the seeded bugs that make it report, and
// rewinds that start the oracles on a restored machine.
func TestStatusWordIndexMatchesFullScan(t *testing.T) {
	seeds, repros := uint64(300), knownViolationRepros
	if testing.Short() {
		seeds, repros = 15, repros[:1]
	}
	reports := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, mut := range []string{"", "double-latch", "skip-tseq"} {
			s := Generate(seed)
			if mut != "" && !s.ghostPolicy() {
				continue // the seeded bugs live in the ghOSt class
			}
			s.Mutation = mut
			reports += indexedAndFullScan(t, s.Repro(), "", func() []Violation { return s.Run().Violations })
		}
	}
	if reports == 0 {
		t.Fatal("no scenario raised a status-word violation; the comparison is vacuous")
	}

	// Rewinds: the oracles attach after the restore, so the index starts
	// from its first-switch-in seed. Fault plans block checkpoints, so the
	// known repros' seeds run without theirs, with and without a seeded
	// double latch. The generated seeds never raise an OnCpu violation,
	// so each checkpoint is rewound once more with a forged claim, which
	// only the seed can put in the index.
	rewinds, rewindReports, forgedReports := 0, 0, 0
	for _, spec := range repros {
		s, err := ParseRepro(spec)
		if err != nil {
			t.Fatal(err)
		}
		s.FaultSpec = ""
		if ok, _ := s.SnapshotCapable(); !ok {
			continue
		}
		for _, mut := range []string{"", "double-latch"} {
			s.Mutation = mut
			cr := s.RunWithCheckpoints(s.Horizon / 4)
			for _, ck := range cr.Checkpoints {
				rewind := func() []Violation {
					rep, err := RewindFrom(s, ck.Img)
					if err != nil {
						t.Fatalf("%s: rewind from t=%v: %v", s.Repro(), ck.At, err)
					}
					return rep.Result.Violations
				}
				rewinds++
				rewindReports += indexedAndFullScan(t, s.Repro(), "", rewind)
				forgeOnCPUClaim(ck.Img)
				forgedReports += indexedAndFullScan(t, s.Repro()+" forged", "OnCpu", rewind)
			}
		}
	}
	if rewinds == 0 || rewindReports == 0 || forgedReports == 0 {
		t.Fatalf("%d rewinds raised %d status-word violations, %d OnCpu ones with forged claims; the rewind comparison is vacuous",
			rewinds, rewindReports, forgedReports)
	}
	t.Logf("status-word violations: %d over the seeds, %d over %d rewinds, %d OnCpu ones with forged claims",
		reports, rewindReports, rewinds, forgedReports)
}

// forgeOnCPUClaim makes the first thread of each enclave in img whose
// status word is off-CPU claim OnCpu on the CPU of a thread that does
// claim it, or on the enclave's first CPU. The restore writes the forged
// word with no status-word event.
func forgeOnCPUClaim(img *snap.Image) {
	for i := range img.Core.Ghost.Enclaves {
		e := &img.Core.Ghost.Enclaves[i]
		cpu := hw.CPUID(e.CPUs[0])
		for _, tr := range e.Threads {
			if tr.SW.OnCPU {
				cpu = tr.SW.CPU
			}
		}
		for j := range e.Threads {
			if sw := &e.Threads[j].SW; !sw.OnCPU {
				sw.OnCPU, sw.CPU = true, cpu
				break
			}
		}
	}
}

// TestStatusWordSwitchInAllocFree: once warm, folding status-word events
// and checking the OnCpu claims at a switch-in allocate nothing.
func TestStatusWordSwitchInAllocFree(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		s := Generate(seed)
		if !s.ghostPolicy() {
			continue
		}
		rg := s.buildShell()
		o := newStatusWordOracle()
		Attach(rg.k, rg.g, o)
		s.populate(rg)
		rg.eng.RunFor(s.Horizon / 2)
		type claim struct {
			e *ghostcore.Enclave
			t *kernel.Thread
		}
		var claims []claim
		for _, e := range rg.g.Enclaves() {
			for _, th := range e.Threads() {
				if tid := int(th.TID()); tid < len(o.word) && o.word[tid].enc != 0 {
					claims = append(claims, claim{e, th})
				}
			}
		}
		if len(claims) == 0 {
			rg.k.Shutdown()
			continue
		}
		cpu := rg.k.CPU(0)
		allocs := testing.AllocsPerRun(100, func() {
			for _, cl := range claims {
				o.Tseq(cl.e, cl.t, 0, 1, 0)
			}
			o.SwitchIn(cpu, cpu.Curr())
		})
		rg.k.Shutdown()
		if allocs != 0 {
			t.Fatalf("seed %d: SwitchIn allocates %v per call with %d claims, want 0", seed, allocs, len(claims))
		}
		return
	}
	t.Fatal("no generated ghOSt scenario holds an OnCpu claim at half its horizon")
}

// benchResult keeps the compiler from dropping benchmarked runs.
var benchResult *Result

// BenchmarkCheckScenario runs a fixed set of generated scenarios under
// every default oracle: the per-scenario cost of a ghost-check scan.
func BenchmarkCheckScenario(b *testing.B) {
	var scenarios []Scenario
	for seed := uint64(1); seed <= 16; seed++ {
		scenarios = append(scenarios, Generate(seed))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range scenarios {
			benchResult = s.Run()
		}
	}
}

// BenchmarkCheckScenarioNoOracles runs BenchmarkCheckScenario's
// scenarios as Run does but with no checker attached; the difference
// between the two is what checking costs.
func BenchmarkCheckScenarioNoOracles(b *testing.B) {
	var scenarios []Scenario
	for seed := uint64(1); seed <= 16; seed++ {
		scenarios = append(scenarios, Generate(seed))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range scenarios {
			rg := s.buildShell()
			s.populate(rg)
			rg.eng.RunFor(s.Horizon)
			rg.k.Shutdown()
		}
	}
}

// BenchmarkCheckOverhead runs each of BenchmarkCheckScenario's scenarios
// three ways back to back: under every default oracle, under every one
// but status-word, and with no checker, rotating which goes first. Host
// drift between separate benchmark runs then cancels out of what it
// reports: the time every oracle adds to an unchecked run (oracles-%),
// and the part of it status-word adds (status-word-%). Both are
// differences of a few percent, so read them from a run of seconds
// (-benchtime 3s); one iteration shows only noise.
func BenchmarkCheckOverhead(b *testing.B) {
	var scenarios []Scenario
	for seed := uint64(1); seed <= 16; seed++ {
		scenarios = append(scenarios, Generate(seed))
	}
	run := func(s Scenario, oracles []Oracle) time.Duration {
		start := time.Now()
		rg := s.buildShell()
		var ck *Checker
		if oracles != nil {
			ck = Attach(rg.k, rg.g, oracles...)
		}
		s.populate(rg)
		rg.eng.RunFor(s.Horizon)
		if ck != nil {
			ck.Finish(rg.eng.Now())
		}
		rg.k.Shutdown()
		return time.Since(start)
	}
	var wall [3]time.Duration // every oracle, all but status-word, none
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, s := range scenarios {
			for k := range wall {
				way := (i + j + k) % len(wall)
				var oracles []Oracle
				switch way {
				case 0:
					oracles = Default()
				case 1:
					oracles = slices.DeleteFunc(Default(), func(o Oracle) bool { return o.Name() == "status-word" })
				}
				wall[way] += run(s, oracles)
			}
		}
	}
	none := float64(wall[2])
	b.ReportMetric(100*float64(wall[0]-wall[2])/none, "oracles-%")
	b.ReportMetric(100*float64(wall[0]-wall[1])/none, "status-word-%")
}
