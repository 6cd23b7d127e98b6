package policies_test

import (
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

type env struct {
	eng *sim.Engine
	k   *kernel.Kernel
	cfs *kernel.CFS
	ac  *kernel.AgentClass
	g   *ghostcore.Class
	enc *ghostcore.Enclave
}

func newEnv(t testing.TB, topo *hw.Topology, encMask kernel.Mask) *env {
	t.Helper()
	eng := sim.NewEngine()
	k := kernel.New(eng, topo, hw.DefaultCostModel())
	ac := kernel.NewAgentClass(k)
	cfs := kernel.NewCFS(k)
	g := ghostcore.NewClass(k, cfs)
	enc := ghostcore.NewEnclave(g, encMask)
	t.Cleanup(k.Shutdown)
	return &env{eng: eng, k: k, cfs: cfs, ac: ac, g: g, enc: enc}
}

func topo8() *hw.Topology {
	return hw.NewTopology(hw.Config{Name: "p8", Sockets: 2, CCXsPerSocket: 1, CoresPerCCX: 2, SMTWidth: 2})
}

func TestShinjukuTimeslicePreemption(t *testing.T) {
	e := newEnv(t, topo8(), kernel.MaskOf(0, 1))
	pol := policies.NewShinjuku()
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())

	// A long request occupies the single worker CPU (cpu 1).
	long := e.enc.SpawnThread(kernel.SpawnOpts{Name: "long"}, func(tc *kernel.TaskContext) {
		tc.Run(sim.Millisecond)
	})
	e.eng.RunFor(10 * sim.Microsecond)
	if long.State() != kernel.StateRunning {
		t.Fatalf("long state = %v", long.State())
	}
	// A short request arrives; the 30us slice must bound its wait.
	var shortDone sim.Time
	start := e.eng.Now()
	e.enc.SpawnThread(kernel.SpawnOpts{Name: "short"}, func(tc *kernel.TaskContext) {
		tc.Run(10 * sim.Microsecond)
		shortDone = tc.Now()
	})
	e.eng.RunFor(200 * sim.Microsecond)
	if shortDone == 0 {
		t.Fatal("short request starved")
	}
	lat := shortDone - start
	if lat > 60*sim.Microsecond {
		t.Fatalf("short latency = %v, want < ~2 slices", lat)
	}
	// The long request finishes too (round-robin, no starvation).
	e.eng.RunFor(3 * sim.Millisecond)
	if long.State() != kernel.StateDead {
		t.Fatalf("long never finished: %v", long.State())
	}
}

func TestShinjukuRoundRobin(t *testing.T) {
	e := newEnv(t, topo8(), kernel.MaskOf(0, 1))
	agentsdk.Start(e.k, e.enc, e.ac, policies.NewShinjuku(), agentsdk.Global())
	var d1, d2 sim.Time
	e.enc.SpawnThread(kernel.SpawnOpts{Name: "a"}, func(tc *kernel.TaskContext) {
		tc.Run(300 * sim.Microsecond)
		d1 = tc.Now()
	})
	e.enc.SpawnThread(kernel.SpawnOpts{Name: "b"}, func(tc *kernel.TaskContext) {
		tc.Run(300 * sim.Microsecond)
		d2 = tc.Now()
	})
	e.eng.RunFor(5 * sim.Millisecond)
	if d1 == 0 || d2 == 0 {
		t.Fatal("threads did not finish")
	}
	// Round-robin: both finish around 600us+overheads, within 25% of
	// each other (a run-to-completion scheduler would finish one at
	// ~300us and the other at ~600us).
	lo, hi := d1, d2
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(lo)/float64(hi) < 0.75 {
		t.Fatalf("not round-robin: %v vs %v", d1, d2)
	}
}

func TestShinjukuShenangoBatchSharing(t *testing.T) {
	e := newEnv(t, topo8(), kernel.MaskOf(0, 1, 2))
	pol := policies.NewShinjukuShenango(func(t *kernel.Thread) bool { return t.Name() == "batch" })
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())

	batch := e.enc.SpawnThread(kernel.SpawnOpts{Name: "batch"}, workload.Spinner(20*sim.Microsecond))
	e.eng.RunFor(sim.Millisecond)
	// Idle capacity: batch must be running.
	if batch.CPUTime() < 500*sim.Microsecond {
		t.Fatalf("batch starved on idle machine: %v", batch.CPUTime())
	}
	// Saturate both worker CPUs with latency work; batch must yield.
	for i := 0; i < 2; i++ {
		e.enc.SpawnThread(kernel.SpawnOpts{Name: "lat"}, workload.Spinner(20*sim.Microsecond))
	}
	e.eng.RunFor(100 * sim.Microsecond)
	mark := batch.CPUTime()
	e.eng.RunFor(2 * sim.Millisecond)
	if got := batch.CPUTime() - mark; got > 100*sim.Microsecond {
		t.Fatalf("batch kept running under latency load: +%v", got)
	}
}

func TestSearchLeastRuntimeFirst(t *testing.T) {
	e := newEnv(t, topo8(), kernel.MaskOf(0, 1))
	agentsdk.Start(e.k, e.enc, e.ac, policies.NewSearch(), agentsdk.Global())
	// Thread "old" accumulates runtime; thread "new" arrives with none.
	// When both wait for the one worker CPU, "new" must win.
	old := e.enc.SpawnThread(kernel.SpawnOpts{Name: "old"}, func(tc *kernel.TaskContext) {
		tc.Run(100 * sim.Microsecond)
		tc.Block()
		tc.Run(100 * sim.Microsecond)
	})
	e.eng.RunFor(sim.Millisecond) // old ran once, now blocked
	hog := e.enc.SpawnThread(kernel.SpawnOpts{Name: "hog"}, func(tc *kernel.TaskContext) {
		tc.Run(50 * sim.Microsecond)
	})
	_ = hog
	var newDone, oldDone sim.Time
	fresh := e.enc.SpawnThread(kernel.SpawnOpts{Name: "fresh"}, func(tc *kernel.TaskContext) {
		tc.Run(50 * sim.Microsecond)
		newDone = tc.Now()
	})
	_ = fresh
	e.k.Wake(old) // old rejoins the queue with 100us runtime
	e.eng.RunFor(0)
	e.eng.RunFor(5 * sim.Millisecond)
	oldDone = old.CPUTime()
	if newDone == 0 || oldDone == 0 {
		t.Fatal("threads did not finish")
	}
	// fresh (0 runtime) must have been scheduled before old (100us).
	if old.State() != kernel.StateDead {
		t.Fatalf("old not finished: %v", old.State())
	}
}

func TestSearchCCXLocality(t *testing.T) {
	// Rome-like: 1 socket, 2 CCXs of 2 cores each, SMT2 → 8 CPUs.
	topo := hw.NewTopology(hw.Config{Name: "ccx", Sockets: 1, CCXsPerSocket: 2, CoresPerCCX: 2, SMTWidth: 2})
	e := newEnv(t, topo, kernel.MaskAll(8))
	agentsdk.Start(e.k, e.enc, e.ac, policies.NewSearch(), agentsdk.Global())
	// A worker that runs and blocks repeatedly; it should stay within
	// its CCX even though other CCX CPUs are also idle.
	w := e.enc.SpawnThread(kernel.SpawnOpts{Name: "w"}, func(tc *kernel.TaskContext) {
		for i := 0; i < 20; i++ {
			tc.Run(20 * sim.Microsecond)
			if i < 19 {
				tc.Block()
			}
		}
	})
	sim.NewTicker(e.eng, 100*sim.Microsecond, func(sim.Time) {
		if w.State() == kernel.StateBlocked {
			e.k.Wake(w)
		}
	})
	e.eng.RunFor(sim.Millisecond)
	firstCCX := topo.CPU(w.LastCPU()).CCX
	e.eng.RunFor(4 * sim.Millisecond)
	if w.State() != kernel.StateDead {
		t.Fatalf("worker unfinished: %v", w.State())
	}
	if got := topo.CPU(w.LastCPU()).CCX; got != firstCCX {
		t.Fatalf("worker migrated across CCXs: %d -> %d", firstCCX, got)
	}
}

func vmOf(t *kernel.Thread) int { return workload.VMOf(t) }

func TestCoreSchedIsolation(t *testing.T) {
	// 2 sockets x 2 cores x SMT2 = 8 CPUs; agent core excluded leaves
	// 3 cores (6 CPUs) for 2 VMs x 4 vCPUs.
	e := newEnv(t, topo8(), kernel.MaskAll(8))
	pol := policies.NewCoreSched(vmOf)
	pol.Quantum = 500 * sim.Microsecond
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())
	ic := workload.NewIsolationChecker(e.k, 50*sim.Microsecond)
	set := workload.NewVMSet(2, 4, 2*sim.Millisecond, 100*sim.Microsecond,
		func(name string, tag any, body kernel.ThreadFunc) *kernel.Thread {
			return e.enc.SpawnThread(kernel.SpawnOpts{Name: name, Tag: tag}, body)
		})
	e.eng.RunFor(30 * sim.Millisecond)
	if ic.Violations != 0 {
		t.Fatalf("isolation violations = %d", ic.Violations)
	}
	if set.Finished != 8 {
		t.Fatalf("finished = %d of 8 vCPUs", set.Finished)
	}
}

func TestCoreSchedFairnessAcrossVMs(t *testing.T) {
	e := newEnv(t, topo8(), kernel.MaskAll(8))
	pol := policies.NewCoreSched(vmOf)
	pol.Quantum = 200 * sim.Microsecond
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())
	// 2 VMs with 6 vCPUs each on 3 usable cores: both must progress.
	set := workload.NewVMSet(2, 6, 50*sim.Millisecond, 100*sim.Microsecond,
		func(name string, tag any, body kernel.ThreadFunc) *kernel.Thread {
			return e.enc.SpawnThread(kernel.SpawnOpts{Name: name, Tag: tag}, body)
		})
	e.eng.RunFor(20 * sim.Millisecond)
	var vmTime [2]sim.Duration
	for i, vm := range set.VMs {
		for _, v := range vm.VCPUs {
			vmTime[i] += v.CPUTime()
		}
	}
	if vmTime[0] == 0 || vmTime[1] == 0 {
		t.Fatalf("a VM starved: %v %v", vmTime[0], vmTime[1])
	}
	ratio := float64(vmTime[0]) / float64(vmTime[1])
	if ratio < 0.6 || ratio > 1.7 {
		t.Fatalf("unfair VM shares: %v vs %v", vmTime[0], vmTime[1])
	}
}

func TestCentralFIFOUnderLoad(t *testing.T) {
	// End-to-end: Poisson load through a worker pool scheduled by the
	// centralized FIFO policy; all requests complete with sane latency.
	e := newEnv(t, topo8(), kernel.MaskAll(8))
	agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	rec := &workload.LatencyRecorder{}
	pool := workload.NewWorkerPool(e.k, 16, rec, func(name string, body kernel.ThreadFunc) *kernel.Thread {
		return e.enc.SpawnThread(kernel.SpawnOpts{Name: name}, body)
	})
	workload.NewPoissonSource(e.eng, sim.NewRand(3), 100000, workload.Fixed(10*sim.Microsecond), pool.Submit)
	e.eng.RunFor(100 * sim.Millisecond)
	if rec.Completed < 9000 {
		t.Fatalf("completed = %d, want ~10000", rec.Completed)
	}
	if p99 := rec.Hist.P99(); p99 > sim.Millisecond {
		t.Fatalf("p99 = %v", p99)
	}
}
