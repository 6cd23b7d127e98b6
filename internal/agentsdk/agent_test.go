package agentsdk_test

import (
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/faults"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/trace"
)

type env struct {
	eng *sim.Engine
	k   *kernel.Kernel
	cfs *kernel.CFS
	ac  *kernel.AgentClass
	g   *ghostcore.Class
	enc *ghostcore.Enclave
}

func newEnv(t *testing.T, cpus int) *env {
	t.Helper()
	topo := hw.NewTopology(hw.Config{Name: "t", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: cpus / 2, SMTWidth: 2})
	eng := sim.NewEngine()
	k := kernel.New(eng, topo, hw.DefaultCostModel())
	ac := kernel.NewAgentClass(k)
	cfs := kernel.NewCFS(k)
	g := ghostcore.NewClass(k, cfs)
	enc := ghostcore.NewEnclave(g, kernel.MaskAll(cpus))
	t.Cleanup(k.Shutdown)
	return &env{eng: eng, k: k, cfs: cfs, ac: ac, g: g, enc: enc}
}

// spawnWorkers creates n ghost threads that each serve `iters` requests:
// block until woken, run `work`, repeat. An external driver wakes them.
func spawnWorkers(e *env, n, iters int, work sim.Duration) []*kernel.Thread {
	var out []*kernel.Thread
	for i := 0; i < n; i++ {
		th := e.enc.SpawnThread(kernel.SpawnOpts{Name: "worker"}, func(tc *kernel.TaskContext) {
			for j := 0; j < iters; j++ {
				tc.Block()
				tc.Run(work)
			}
		})
		out = append(out, th)
	}
	return out
}

func TestCentralizedSchedulesWorkers(t *testing.T) {
	e := newEnv(t, 8)
	tr := trace.NewMetricsOnly()
	trace.Attach(tr, e.k)
	e.g.AddObserver(tr)
	set := agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	workers := spawnWorkers(e, 4, 10, 20*sim.Microsecond)
	// Drive: wake each worker every 100us.
	sim.NewTicker(e.eng, 100*sim.Microsecond, func(sim.Time) {
		for _, w := range workers {
			if w.State() == kernel.StateBlocked {
				e.k.Wake(w)
			}
		}
	})
	e.eng.RunFor(20 * sim.Millisecond)
	for i, w := range workers {
		if w.State() != kernel.StateDead {
			t.Fatalf("worker %d state %v (cpu time %v)", i, w.State(), w.CPUTime())
		}
		if got := w.CPUTime(); got < 200*sim.Microsecond {
			t.Fatalf("worker %d cpuTime %v, want >= 200us", i, got)
		}
	}
	if set.TxnsCommitted < 40 {
		t.Fatalf("txns committed = %d, want >= 40", set.TxnsCommitted)
	}
	delivery := tr.Metrics().Enclaves[e.enc.ID()].MsgDelivery
	if delivery.Count() == 0 {
		t.Fatal("no message delivery samples")
	}
	// Spinning-agent delivery should be well under a microsecond at p50.
	if p50 := delivery.P50(); p50 > 2*sim.Microsecond {
		t.Fatalf("global delivery p50 = %v", p50)
	}
}

func TestCentralizedAgentOccupiesOneCPU(t *testing.T) {
	e := newEnv(t, 4)
	agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	e.eng.RunFor(5 * sim.Millisecond)
	// Agent spins on CPU 0.
	cur := e.k.CPU(0).Curr()
	if cur == nil || cur.Name() != "ghost-agent" {
		t.Fatalf("cpu0 running %v, want agent", cur)
	}
	if busy := cur.RuntimeNow(); busy < 4*sim.Millisecond {
		t.Fatalf("agent cpu time = %v, want ~5ms", busy)
	}
}

func TestPerCPUSchedulesWorkers(t *testing.T) {
	e := newEnv(t, 4)
	set := agentsdk.Start(e.k, e.enc, e.ac, policies.NewPerCPUFIFO(), agentsdk.PerCPU())
	workers := spawnWorkers(e, 6, 8, 30*sim.Microsecond)
	sim.NewTicker(e.eng, 200*sim.Microsecond, func(sim.Time) {
		for _, w := range workers {
			if w.State() == kernel.StateBlocked {
				e.k.Wake(w)
			}
		}
	})
	e.eng.RunFor(30 * sim.Millisecond)
	for i, w := range workers {
		if w.State() != kernel.StateDead {
			t.Fatalf("worker %d state %v cpu=%v", i, w.State(), w.CPUTime())
		}
	}
	if set.TxnsCommitted < 48 {
		t.Fatalf("txns = %d", set.TxnsCommitted)
	}
	// Local agents block between decisions: CPUs are shared with the
	// workers, so no agent may saturate its CPU.
	agents := 0
	for tid := kernel.TID(1); e.k.Thread(tid) != nil; tid++ {
		if th := e.k.Thread(tid); th.Name() == "ghost-agent" {
			agents++
			if th.RuntimeNow() > 25*sim.Millisecond {
				t.Fatalf("agent on cpu %d ran %v of 30ms", th.LastCPU(), th.RuntimeNow())
			}
		}
	}
	if agents != 4 {
		t.Fatalf("%d agent threads, want one per CPU", agents)
	}
}

func TestPerCPUWorkStealing(t *testing.T) {
	e := newEnv(t, 4)
	pol := policies.NewPerCPUFIFO()
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.PerCPU())
	// Many short-lived CPU-bound ghost threads spawned at once: stealing
	// must spread them across CPUs.
	var ths []*kernel.Thread
	for i := 0; i < 12; i++ {
		ths = append(ths, e.enc.SpawnThread(kernel.SpawnOpts{Name: "w"}, func(tc *kernel.TaskContext) {
			tc.Run(300 * sim.Microsecond)
		}))
	}
	e.eng.RunFor(30 * sim.Millisecond)
	for i, th := range ths {
		if th.State() != kernel.StateDead {
			t.Fatalf("thread %d: %v", i, th.State())
		}
	}
	ran := map[hw.CPUID]bool{}
	for _, th := range ths {
		ran[th.LastCPU()] = true
	}
	if len(ran) < 2 {
		t.Fatalf("work not spread: the threads ran on %d CPUs", len(ran))
	}
}

func TestHotHandoff(t *testing.T) {
	e := newEnv(t, 4)
	set := agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	e.eng.RunFor(sim.Millisecond)
	if got := globalAgentCPU(e); got != 0 {
		t.Fatalf("global agent on cpu %d, want 0", got)
	}
	// A CFS daemon pinned to CPU 0 must displace the global agent.
	daemon := e.k.Spawn(kernel.SpawnOpts{Name: "daemon", Class: e.cfs, Affinity: kernel.MaskOf(0)},
		func(tc *kernel.TaskContext) { tc.Run(500 * sim.Microsecond) })
	e.eng.RunFor(5 * sim.Millisecond)
	if daemon.State() != kernel.StateDead {
		t.Fatalf("pinned CFS daemon starved behind agent: %v", daemon.State())
	}
	if set.Handoffs == 0 {
		t.Fatal("no hot handoff recorded")
	}
	if got := globalAgentCPU(e); got == 0 || got == hw.NoCPU {
		t.Fatalf("global agent on cpu %d, want it moved off cpu 0", got)
	}
	// Scheduling still works after the handoff.
	w := spawnWorkers(e, 1, 1, 10*sim.Microsecond)[0]
	e.k.Wake(w)
	e.eng.RunFor(5 * sim.Millisecond)
	if w.State() != kernel.StateDead {
		t.Fatalf("worker not scheduled after handoff: %v", w.State())
	}
}

func TestAgentCrashFallsBackToCFS(t *testing.T) {
	e := newEnv(t, 4)
	set := agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	workers := spawnWorkers(e, 2, 1, 50*sim.Microsecond)
	for _, w := range workers {
		e.k.Wake(w)
	}
	set.Crash()
	if !e.enc.Destroyed() {
		t.Fatal("enclave survived crash without upgrade")
	}
	e.eng.RunFor(10 * sim.Millisecond)
	for i, w := range workers {
		if w.State() != kernel.StateDead {
			t.Fatalf("worker %d stranded after crash: %v", i, w.State())
		}
	}
}

func TestInPlaceUpgrade(t *testing.T) {
	e := newEnv(t, 4)
	set1 := agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	workers := spawnWorkers(e, 3, 60, 20*sim.Microsecond)
	sim.NewTicker(e.eng, 100*sim.Microsecond, func(sim.Time) {
		for _, w := range workers {
			if w.State() == kernel.StateBlocked {
				e.k.Wake(w)
			}
		}
	})
	e.eng.RunFor(2 * sim.Millisecond)
	// Upgrade: stop generation 1, start generation 2 on the live enclave.
	set1.Stop()
	if e.enc.Destroyed() {
		t.Fatal("enclave destroyed during upgrade")
	}
	set2 := agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	e.eng.RunFor(30 * sim.Millisecond)
	for i, w := range workers {
		if w.State() != kernel.StateDead {
			t.Fatalf("worker %d stalled across upgrade: %v", i, w.State())
		}
	}
	if set2.TxnsCommitted == 0 {
		t.Fatal("new generation never scheduled")
	}
}

func TestRepollAfterDrivesTimeslice(t *testing.T) {
	e := newEnv(t, 4)
	pol := &repollPolicy{inner: policies.NewCentralFIFO()}
	set := agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())
	e.eng.RunFor(5 * sim.Millisecond)
	if pol.polls < 40 {
		t.Fatalf("repoll count = %d, want ~50 (every 100us)", pol.polls)
	}
	_ = set
}

// repollPolicy asks for a 100us repoll on every Schedule call.
type repollPolicy struct {
	inner *policies.CentralFIFO
	polls int
}

func (p *repollPolicy) Attach(ctx *agentsdk.Context) { p.inner.Attach(ctx) }
func (p *repollPolicy) OnMessage(ctx *agentsdk.Context, m ghostcore.Message) {
	p.inner.OnMessage(ctx, m)
}
func (p *repollPolicy) Schedule(ctx *agentsdk.Context) []agentsdk.Assignment {
	p.polls++
	ctx.RepollAfter(100 * sim.Microsecond)
	return p.inner.Schedule(ctx)
}
func (p *repollPolicy) OnTxnFail(ctx *agentsdk.Context, a agentsdk.Assignment, s ghostcore.TxnStatus) {
	p.inner.OnTxnFail(ctx, a, s)
}

func TestPriorityBandsWithPreemption(t *testing.T) {
	e := newEnv(t, 4)
	pol := policies.NewCentralFIFO()
	pol.NumBands = 2
	pol.PreemptLower = true
	pol.Band = func(t *kernel.Thread) int {
		if t.Name() == "latency" {
			return 0
		}
		return 1
	}
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())
	// Batch threads saturate all schedulable CPUs (1,2,3; agent on 0).
	var batch []*kernel.Thread
	for i := 0; i < 3; i++ {
		batch = append(batch, e.enc.SpawnThread(kernel.SpawnOpts{Name: "batch"}, func(tc *kernel.TaskContext) {
			for j := 0; j < 1000; j++ {
				tc.Run(100 * sim.Microsecond)
			}
		}))
	}
	e.eng.RunFor(2 * sim.Millisecond)
	running := 0
	for _, b := range batch {
		if b.State() == kernel.StateRunning {
			running++
		}
	}
	if running != 3 {
		t.Fatalf("batch running = %d, want 3", running)
	}
	// A latency-critical thread arrives: must preempt a batch thread.
	start := e.eng.Now()
	var began sim.Time
	lat := e.enc.SpawnThread(kernel.SpawnOpts{Name: "latency"}, func(tc *kernel.TaskContext) {
		began = tc.Now()
		tc.Run(10 * sim.Microsecond)
	})
	e.eng.RunFor(sim.Millisecond)
	if lat.State() != kernel.StateDead {
		t.Fatalf("latency thread state %v", lat.State())
	}
	// It must have started well before any batch 100us chunk ended.
	if delay := began - start; delay > 50*sim.Microsecond {
		t.Fatalf("latency thread sched delay %v", delay)
	}
}

// globalAgentCPU returns the CPU the spinning global agent occupies,
// hw.NoCPU if no CPU runs an agent.
func globalAgentCPU(e *env) hw.CPUID {
	for i := 0; i < e.k.NumCPUs(); i++ {
		if cur := e.k.CPU(hw.CPUID(i)).Curr(); cur != nil && cur.Name() == "ghost-agent" {
			return hw.CPUID(i)
		}
	}
	return hw.NoCPU
}

// TestPerCPUForgetsDeadThreads: a per-CPU set drops a thread's placement
// once its THREAD_DEAD is routed, so a snapshot carries only the live
// threads' placements.
func TestPerCPUForgetsDeadThreads(t *testing.T) {
	e := newEnv(t, 4)
	set := agentsdk.Start(e.k, e.enc, e.ac, policies.NewPerCPUFIFO(), agentsdk.PerCPU())
	var dead []*kernel.Thread
	for i := 0; i < 6; i++ {
		dead = append(dead, e.enc.SpawnThread(kernel.SpawnOpts{Name: "short"}, func(tc *kernel.TaskContext) {
			tc.Run(100 * sim.Microsecond)
		}))
	}
	live := e.enc.SpawnThread(kernel.SpawnOpts{Name: "live"}, func(tc *kernel.TaskContext) {
		tc.Run(10 * sim.Microsecond)
		tc.Block()
	})
	e.eng.RunFor(5 * sim.Millisecond)
	for i, th := range dead {
		if th.State() != kernel.StateDead {
			t.Fatalf("short thread %d: %v at 5ms", i, th.State())
		}
	}
	rec, err := set.SaveRec()
	if err != nil {
		t.Fatal(err)
	}
	placed := map[kernel.TID]bool{}
	for _, pair := range rec.ThreadCPU {
		placed[kernel.TID(pair[0])] = true
	}
	for _, th := range dead {
		if placed[th.TID()] {
			t.Errorf("dead T%d still placed: %v", th.TID(), rec.ThreadCPU)
		}
	}
	if !placed[live.TID()] {
		t.Errorf("live T%d not placed: %v", live.TID(), rec.ThreadCPU)
	}
}

// assignLog is a per-CPU FIFO that records every thread it places.
type assignLog struct {
	*policies.PerCPUFIFO
	assigned []kernel.TID
}

func (p *assignLog) AssignCPU(ctx *agentsdk.Context, t *kernel.Thread) hw.CPUID {
	p.assigned = append(p.assigned, t.TID())
	return p.PerCPUFIFO.AssignCPU(ctx, t)
}

// TestPerCPUSkipsThreadsDeadAtCreation: a thread killed before its
// THREAD_CREATED is drained is never placed, so it neither moves the
// round-robin cursor nor routes its messages to another CPU's agent.
func TestPerCPUSkipsThreadsDeadAtCreation(t *testing.T) {
	e := newEnv(t, 4)
	pol := &assignLog{PerCPUFIFO: policies.NewPerCPUFIFO()}
	set := agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.PerCPU())
	doomed := e.enc.SpawnThread(kernel.SpawnOpts{Name: "doomed"}, func(tc *kernel.TaskContext) {
		tc.Run(10 * sim.Microsecond)
	})
	e.k.Kill(doomed)
	live := e.enc.SpawnThread(kernel.SpawnOpts{Name: "live"}, func(tc *kernel.TaskContext) {
		tc.Run(10 * sim.Microsecond)
		tc.Block()
	})
	e.eng.RunFor(sim.Millisecond)
	if len(pol.assigned) != 1 || pol.assigned[0] != live.TID() {
		t.Fatalf("placed %v, want only the live T%d", pol.assigned, live.TID())
	}
	rec, err := set.SaveRec()
	if err != nil {
		t.Fatal(err)
	}
	first := e.enc.CPUs().First()
	if len(rec.ThreadCPU) != 1 || rec.ThreadCPU[0] != [2]int{int(live.TID()), int(first)} {
		t.Fatalf("placements %v, want T%d on the first CPU %d", rec.ThreadCPU, live.TID(), first)
	}
	if live.State() != kernel.StateBlocked {
		t.Fatalf("live thread %v at 1ms, want blocked after its run", live.State())
	}
}

// commitTimes records the instant of every committed transaction.
type commitTimes struct {
	eng *sim.Engine
	at  []sim.Time
}

func (c *commitTimes) TxnGroup(_ *ghostcore.Enclave, txns []*ghostcore.Txn, _ bool) {
	for _, txn := range txns {
		if txn.Status == ghostcore.TxnCommitted {
			c.at = append(c.at, c.eng.Now())
		}
	}
}

// TestPerCPUStallStopsEveryAgent: a stall fault reaches every agent of a
// per-CPU set, so no CPU commits a transaction while it lasts.
func TestPerCPUStallStopsEveryAgent(t *testing.T) {
	e := newEnv(t, 4)
	plan, err := faults.ParsePlan("stall@5ms/1ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	e.k.SetFaults(faults.NewInjector(e.eng, plan))
	commits := &commitTimes{eng: e.eng}
	e.g.AddObserver(commits)
	agentsdk.Start(e.k, e.enc, e.ac, policies.NewPerCPUFIFO(), agentsdk.PerCPU())
	workers := spawnWorkers(e, 8, 1000, 20*sim.Microsecond)
	sim.NewTicker(e.eng, 50*sim.Microsecond, func(sim.Time) {
		for _, w := range workers {
			if w.State() == kernel.StateBlocked {
				e.k.Wake(w)
			}
		}
	})
	stallAt, stallEnd := sim.Time(5*sim.Millisecond), sim.Time(6*sim.Millisecond)
	e.eng.RunUntil(stallEnd)
	var before, during int
	for _, at := range commits.at {
		switch {
		case at < stallAt:
			before++
		case at < stallEnd:
			during++
		}
	}
	if before == 0 {
		t.Fatal("no commit before the stall")
	}
	if during != 0 {
		t.Errorf("%d commits inside the stall [5ms, 6ms), want 0", during)
	}
}
