package kernel

import (
	"fmt"
	"testing"

	"ghost/internal/hw"
	"ghost/internal/sim"
)

// testEnv bundles a small simulated machine for tests.
type testEnv struct {
	eng  *sim.Engine
	k    *Kernel
	cfs  *CFS
	busy *busyMeter
}

func newTestEnv(t *testing.T, topo *hw.Topology) *testEnv {
	t.Helper()
	eng := sim.NewEngine()
	k := New(eng, topo, hw.DefaultCostModel())
	busy := meterBusy(k)
	cfs := NewCFS(k)
	t.Cleanup(k.Shutdown)
	return &testEnv{eng: eng, k: k, cfs: cfs, busy: busy}
}

func smallTopo() *hw.Topology {
	return hw.NewTopology(hw.Config{Name: "t2x2", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 2, SMTWidth: 2})
}

func oneCPUTopo() *hw.Topology {
	return hw.NewTopology(hw.Config{Name: "t1", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 1, SMTWidth: 1})
}

func TestSingleThreadRuns(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	var done sim.Time
	env.k.Spawn(SpawnOpts{Name: "worker", Class: env.cfs}, func(tc *TaskContext) {
		tc.Run(100 * sim.Microsecond)
		done = tc.Now()
	})
	env.eng.RunFor(10 * sim.Millisecond)
	if done == 0 {
		t.Fatal("thread never completed")
	}
	// 100us of work plus one context switch (599 ns).
	want := 100*sim.Microsecond + env.k.Cost().ContextSwitchCFS
	if done != want {
		t.Fatalf("completed at %v, want %v", done, want)
	}
}

func TestThreadCPUTimeAccounting(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	th := env.k.Spawn(SpawnOpts{Name: "w", Class: env.cfs}, func(tc *TaskContext) {
		tc.Run(50 * sim.Microsecond)
		tc.Sleep(sim.Millisecond)
		tc.Run(50 * sim.Microsecond)
	})
	env.eng.RunFor(10 * sim.Millisecond)
	if th.State() != StateDead {
		t.Fatalf("thread state = %v, want dead", th.State())
	}
	if got := th.CPUTime(); got != 100*sim.Microsecond {
		t.Fatalf("cpuTime = %v, want 100us", got)
	}
}

func TestBlockWake(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	var woke sim.Time
	th := env.k.Spawn(SpawnOpts{Name: "sleeper", Class: env.cfs}, func(tc *TaskContext) {
		tc.Block()
		woke = tc.Now()
		tc.Run(10 * sim.Microsecond)
	})
	env.eng.RunFor(sim.Millisecond)
	if th.State() != StateBlocked {
		t.Fatalf("state = %v, want blocked", th.State())
	}
	env.k.Wake(th)
	env.eng.RunFor(sim.Millisecond)
	if th.State() != StateDead {
		t.Fatalf("state = %v, want dead after wake", th.State())
	}
	if woke != sim.Millisecond {
		t.Fatalf("woke at %v, want 1ms", woke)
	}
}

func TestWakePendingCoalesce(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	blocks := 0
	th := env.k.Spawn(SpawnOpts{Name: "w", Class: env.cfs}, func(tc *TaskContext) {
		tc.Run(100 * sim.Microsecond) // wake arrives during this run
		tc.Block()                    // must return immediately (pending wake)
		blocks++
		tc.Block() // blocks for real
		blocks++
	})
	env.eng.After(10*sim.Microsecond, func() { env.k.Wake(th) })
	env.eng.RunFor(sim.Millisecond)
	if blocks != 1 {
		t.Fatalf("blocks = %d, want 1 (first Block consumed pending wake)", blocks)
	}
	if th.State() != StateBlocked {
		t.Fatalf("state = %v, want blocked", th.State())
	}
}

func TestFairSharingTwoThreads(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	spin := func(tc *TaskContext) {
		for i := 0; i < 10000; i++ {
			tc.Run(100 * sim.Microsecond)
		}
	}
	a := env.k.Spawn(SpawnOpts{Name: "a", Class: env.cfs}, spin)
	b := env.k.Spawn(SpawnOpts{Name: "b", Class: env.cfs}, spin)
	env.eng.RunFor(200 * sim.Millisecond)
	at, bt := float64(a.CPUTime()), float64(b.CPUTime())
	if at == 0 || bt == 0 {
		t.Fatalf("starvation: a=%v b=%v", a.CPUTime(), b.CPUTime())
	}
	ratio := at / bt
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("unfair sharing: a=%v b=%v ratio=%.2f", a.CPUTime(), b.CPUTime(), ratio)
	}
}

func TestNiceWeighting(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	spin := func(tc *TaskContext) {
		for i := 0; i < 100000; i++ {
			tc.Run(100 * sim.Microsecond)
		}
	}
	hi := env.k.Spawn(SpawnOpts{Name: "hi", Class: env.cfs, Nice: -5}, spin)
	lo := env.k.Spawn(SpawnOpts{Name: "lo", Class: env.cfs, Nice: 5}, spin)
	env.eng.RunFor(500 * sim.Millisecond)
	ratio := float64(hi.CPUTime()) / float64(lo.CPUTime())
	// weight(-5)/weight(5) = 3121/335 ≈ 9.3; CFS granularity effects
	// compress this, but the high-priority thread must clearly dominate.
	if ratio < 3 {
		t.Fatalf("nice had weak effect: hi=%v lo=%v ratio=%.2f", hi.CPUTime(), lo.CPUTime(), ratio)
	}
}

func TestYieldAlternation(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	var order []string
	mk := func(name string) ThreadFunc {
		return func(tc *TaskContext) {
			for i := 0; i < 3; i++ {
				tc.Run(sim.Microsecond)
				order = append(order, name)
				tc.Yield()
			}
		}
	}
	env.k.Spawn(SpawnOpts{Name: "a", Class: env.cfs}, mk("a"))
	env.k.Spawn(SpawnOpts{Name: "b", Class: env.cfs}, mk("b"))
	env.eng.RunFor(10 * sim.Millisecond)
	if len(order) != 6 {
		t.Fatalf("order = %v, want 6 entries", order)
	}
	// With equal vruntime and yields, the two must interleave rather
	// than one running all three slices first.
	if order[0] == order[1] && order[1] == order[2] {
		t.Fatalf("no alternation: %v", order)
	}
}

func TestSMTDilation(t *testing.T) {
	topo := smallTopo() // CPUs 0,1 are cores; 2,3 their siblings
	env := newTestEnv(t, topo)
	sib := topo.CPU(0).Sibling()
	var aDone, bDone sim.Time
	a := env.k.Spawn(SpawnOpts{Name: "a", Class: env.cfs, Affinity: MaskOf(0)}, func(tc *TaskContext) {
		tc.Run(sim.Millisecond)
		aDone = tc.Now()
	})
	b := env.k.Spawn(SpawnOpts{Name: "b", Class: env.cfs, Affinity: MaskOf(sib)}, func(tc *TaskContext) {
		tc.Run(sim.Millisecond)
		bDone = tc.Now()
	})
	_ = a
	_ = b
	env.eng.RunFor(10 * sim.Millisecond)
	if aDone == 0 || bDone == 0 {
		t.Fatal("threads did not finish")
	}
	// Both run concurrently on sibling hyperthreads: each should take
	// ~1.4 ms of wall time for 1 ms of work (plus switch costs).
	min := sim.Duration(float64(sim.Millisecond) * 1.3)
	if aDone < min || bDone < min {
		t.Fatalf("SMT contention not applied: a=%v b=%v", aDone, bDone)
	}
	// And an isolated run must be faster than a contended one.
	env2 := newTestEnv(t, topo)
	var soloDone sim.Time
	env2.k.Spawn(SpawnOpts{Name: "solo", Class: env2.cfs, Affinity: MaskOf(0)}, func(tc *TaskContext) {
		tc.Run(sim.Millisecond)
		soloDone = tc.Now()
	})
	env2.eng.RunFor(10 * sim.Millisecond)
	if soloDone >= aDone {
		t.Fatalf("solo run (%v) not faster than contended (%v)", soloDone, aDone)
	}
}

func TestMultiCPUSpreads(t *testing.T) {
	env := newTestEnv(t, smallTopo())
	var dones []sim.Time
	for i := 0; i < 4; i++ {
		env.k.Spawn(SpawnOpts{Name: "w", Class: env.cfs}, func(tc *TaskContext) {
			tc.Run(sim.Millisecond)
			dones = append(dones, tc.Now())
		})
	}
	env.eng.RunFor(20 * sim.Millisecond)
	if len(dones) != 4 {
		t.Fatalf("finished %d of 4", len(dones))
	}
	// 4 threads on 4 CPUs (2 cores SMT-2): all should finish within
	// ~1.4x + eps, i.e. genuinely in parallel, not serialized.
	for _, d := range dones {
		if d > 2*sim.Millisecond {
			t.Fatalf("thread finished at %v; not parallel", d)
		}
	}
}

func TestIdleStealing(t *testing.T) {
	// 8 CPU-bound threads, all woken targeting CPU 0's queue via
	// simultaneous spawn; idle CPUs must steal rather than starve.
	env := newTestEnv(t, smallTopo())
	finished := 0
	for i := 0; i < 8; i++ {
		env.k.Spawn(SpawnOpts{Name: "w", Class: env.cfs}, func(tc *TaskContext) {
			tc.Run(500 * sim.Microsecond)
			finished++
		})
	}
	env.eng.RunFor(5 * sim.Millisecond)
	if finished != 8 {
		t.Fatalf("finished = %d, want 8", finished)
	}
	busy := 0
	for i := 0; i < env.k.NumCPUs(); i++ {
		if env.busy.of(hw.CPUID(i)) > 0 {
			busy++
		}
	}
	if busy < 3 {
		t.Fatalf("only %d CPUs did work; stealing/balancing broken", busy)
	}
}

func TestAffinityRespected(t *testing.T) {
	env := newTestEnv(t, smallTopo())
	th := env.k.Spawn(SpawnOpts{Name: "pin", Class: env.cfs, Affinity: MaskOf(1)}, func(tc *TaskContext) {
		for i := 0; i < 100; i++ {
			tc.Run(10 * sim.Microsecond)
			tc.Yield()
		}
	})
	env.eng.RunFor(10 * sim.Millisecond)
	if th.LastCPU() != 1 {
		t.Fatalf("pinned thread ran on cpu %d", th.LastCPU())
	}
	if got := env.busy.of(1); got == 0 {
		t.Fatal("cpu 1 never busy")
	}
}

func TestSleepDuration(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	var woke sim.Time
	env.k.Spawn(SpawnOpts{Name: "s", Class: env.cfs}, func(tc *TaskContext) {
		tc.Sleep(5 * sim.Millisecond)
		woke = tc.Now()
	})
	env.eng.RunFor(20 * sim.Millisecond)
	if woke < 5*sim.Millisecond || woke > 5*sim.Millisecond+10*sim.Microsecond {
		t.Fatalf("woke at %v, want ~5ms", woke)
	}
}

func TestMailboxFIFO(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	mb := NewMailbox[int](env.k)
	var got []int
	env.k.Spawn(SpawnOpts{Name: "consumer", Class: env.cfs}, func(tc *TaskContext) {
		for i := 0; i < 5; i++ {
			got = append(got, mb.Get(tc))
			tc.Run(sim.Microsecond)
		}
	})
	for i := 0; i < 5; i++ {
		i := i
		env.eng.At(sim.Time(i+1)*sim.Millisecond, func() { mb.Put(i) })
	}
	env.eng.RunFor(20 * sim.Millisecond)
	if len(got) != 5 {
		t.Fatalf("got %d items", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

// TestWaitQueueWakeAll wakes every waiter of a queue: WakeOne succeeds
// once per enrolled waiter, then reports the queue empty.
func TestWaitQueueWakeAll(t *testing.T) {
	env := newTestEnv(t, smallTopo())
	wq := NewWaitQueue(env.k)
	woken := 0
	for i := 0; i < 3; i++ {
		env.k.Spawn(SpawnOpts{Name: "w", Class: env.cfs}, func(tc *TaskContext) {
			wq.Wait(tc)
			woken++
		})
	}
	env.eng.RunFor(sim.Millisecond)
	if woken != 0 {
		t.Fatalf("woken = %d before any wakeup", woken)
	}
	wakes := 0
	for wq.WakeOne() {
		wakes++
	}
	if wakes != 3 {
		t.Fatalf("WakeOne succeeded %d times, want one per waiter", wakes)
	}
	env.eng.RunFor(sim.Millisecond)
	if woken != 3 {
		t.Fatalf("woken = %d", woken)
	}
}

func TestMicroQuantaThrottling(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, oneCPUTopo(), hw.DefaultCostModel())
	mq := NewMicroQuanta(k)
	cfs := NewCFS(k)
	defer k.Shutdown()

	// One spinning MicroQuanta thread plus one CFS thread on a single
	// CPU: MQ should get ~90% (0.9ms/1ms), CFS the blackout remainder.
	spin := func(tc *TaskContext) {
		for {
			tc.Run(50 * sim.Microsecond)
		}
	}
	rt := k.Spawn(SpawnOpts{Name: "rt", Class: mq}, spin)
	batch := k.Spawn(SpawnOpts{Name: "batch", Class: cfs}, spin)
	eng.RunFor(100 * sim.Millisecond)

	rtShare := float64(rt.CPUTime()) / float64(100*sim.Millisecond)
	batchShare := float64(batch.CPUTime()) / float64(100*sim.Millisecond)
	if rtShare < 0.80 || rtShare > 0.95 {
		t.Fatalf("MQ share = %.2f, want ~0.9", rtShare)
	}
	if batchShare < 0.04 {
		t.Fatalf("CFS starved during blackouts: share = %.2f", batchShare)
	}
}

func TestMicroQuantaPreemptsCFS(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, oneCPUTopo(), hw.DefaultCostModel())
	mq := NewMicroQuanta(k)
	cfs := NewCFS(k)
	defer k.Shutdown()

	k.Spawn(SpawnOpts{Name: "batch", Class: cfs}, func(tc *TaskContext) {
		for {
			tc.Run(sim.Millisecond)
		}
	})
	var latency sim.Duration
	rt := k.Spawn(SpawnOpts{Name: "rt", Class: mq}, func(tc *TaskContext) {
		tc.Block()
		latency = tc.Now() - tc.Thread().WakeTime()
		tc.Run(10 * sim.Microsecond)
	})
	eng.RunFor(5 * sim.Millisecond)
	k.Wake(rt)
	eng.RunFor(5 * sim.Millisecond)
	if rt.State() != StateDead {
		t.Fatalf("rt state = %v", rt.State())
	}
	// Wakeup latency should be a context switch, not a CFS slice.
	if latency > 10*sim.Microsecond {
		t.Fatalf("MQ wake latency = %v; did not preempt CFS", latency)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Duration, sim.Duration, uint64) {
		eng := sim.NewEngine()
		k := New(eng, smallTopo(), hw.DefaultCostModel())
		cfs := NewCFS(k)
		defer k.Shutdown()
		r := sim.NewRand(7)
		var a, b *Thread
		for i := 0; i < 6; i++ {
			th := k.Spawn(SpawnOpts{Name: "w", Class: cfs}, func(tc *TaskContext) {
				for j := 0; j < 50; j++ {
					tc.Run(sim.Duration(10+r.Intn(90)) * sim.Microsecond)
					if j%7 == 0 {
						tc.Sleep(sim.Duration(r.Intn(100)) * sim.Microsecond)
					}
				}
			})
			if i == 0 {
				a = th
			}
			if i == 1 {
				b = th
			}
		}
		eng.RunFor(50 * sim.Millisecond)
		return a.CPUTime(), b.CPUTime(), eng.Executed
	}
	a1, b1, e1 := run()
	a2, b2, e2 := run()
	if a1 != a2 || b1 != b2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%v,%v,%d) vs (%v,%v,%d)", a1, b1, e1, a2, b2, e2)
	}
}

func TestSpinActionOccupiesCPU(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	ac := NewAgentClass(env.k)
	steps := 0
	ag := env.k.Spawn(SpawnOpts{Name: "agent", Class: ac, Affinity: MaskOf(0)},
		poller(100, SpinAction(), func(sim.Time) { steps++ }))
	env.k.Wake(ag)
	env.eng.RunFor(sim.Millisecond)
	if ag.State() != StateRunning {
		t.Fatalf("agent state = %v, want running (spinning)", ag.State())
	}
	if steps != 1 {
		t.Fatalf("steps = %d, want exactly 1 without pokes", steps)
	}
	// CPU is fully busy while spinning.
	if got := env.busy.of(0); got < 900*sim.Microsecond {
		t.Fatalf("cpu busy = %v, want ~1ms", got)
	}
	// A poke triggers exactly one more step.
	env.k.Poke(ag)
	env.eng.RunFor(sim.Millisecond)
	if steps != 2 {
		t.Fatalf("steps = %d after poke, want 2", steps)
	}
}

// poller is a polling machine's body: the thread starts blocked, and
// each step calls onStep and charges cost before after.
func poller(cost sim.Duration, after Action, onStep func(now sim.Time)) ThreadFunc {
	var c Charge
	return Steps(func(t *Thread) (Action, bool) {
		if a, ok := c.Next(t); ok {
			return a, true
		}
		onStep(t.k.Now())
		return c.Then(cost, after), true
	})
}

func TestChargeBlockWakeCycle(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	ac := NewAgentClass(env.k)
	var stepTimes []sim.Time
	ag := env.k.Spawn(SpawnOpts{Name: "agent", Class: ac, Affinity: MaskOf(0)},
		poller(500, BlockAction(), func(now sim.Time) { stepTimes = append(stepTimes, now) }))
	env.k.Wake(ag)
	env.eng.RunFor(sim.Millisecond)
	if len(stepTimes) != 1 {
		t.Fatalf("steps = %d, want 1", len(stepTimes))
	}
	if ag.State() != StateBlocked {
		t.Fatalf("state = %v, want blocked", ag.State())
	}
	// Step must run only after the wakeup context switch, not at Wake.
	if stepTimes[0] < env.k.Cost().ContextSwitchMinimal {
		t.Fatalf("step at %v, before context switch completed", stepTimes[0])
	}
	env.k.Wake(ag)
	env.eng.RunFor(sim.Millisecond)
	if len(stepTimes) != 2 {
		t.Fatalf("steps = %d after second wake", len(stepTimes))
	}
}

// A poke that lands while a step's cost is charged makes the thread step
// again as soon as the cost has elapsed, instead of blocking or spinning
// past the event.
func TestPokeDuringChargeResteps(t *testing.T) {
	for _, after := range []Action{BlockAction(), SpinAction()} {
		env := newTestEnv(t, oneCPUTopo())
		ac := NewAgentClass(env.k)
		var ag *Thread
		var stepTimes []sim.Time
		ag = env.k.Spawn(SpawnOpts{Name: "agent", Class: ac, Affinity: MaskOf(0)},
			poller(500, after, func(now sim.Time) {
				if len(stepTimes) == 0 {
					env.eng.After(100, func() { env.k.Poke(ag) })
				}
				stepTimes = append(stepTimes, now)
			}))
		env.k.Wake(ag)
		env.eng.RunFor(sim.Millisecond)
		if len(stepTimes) != 2 || stepTimes[1]-stepTimes[0] != 500 {
			t.Fatalf("after kind %d: steps at %v, want two, the second as the first's 500ns cost ends", after.kind, stepTimes)
		}
		if want := map[actionKind]State{actBlock: StateBlocked, actSpinIdle: StateRunning}[after.kind]; ag.State() != want {
			t.Fatalf("after kind %d: state %v, want %v", after.kind, ag.State(), want)
		}
	}
}

func TestAgentPreemptsEverything(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, oneCPUTopo(), hw.DefaultCostModel())
	ac := NewAgentClass(k)
	mq := NewMicroQuanta(k)
	cfs := NewCFS(k)
	defer k.Shutdown()

	k.Spawn(SpawnOpts{Name: "cfs", Class: cfs}, func(tc *TaskContext) {
		for {
			tc.Run(sim.Millisecond)
		}
	})
	k.Spawn(SpawnOpts{Name: "mq", Class: mq}, func(tc *TaskContext) {
		for {
			tc.Run(100 * sim.Microsecond)
		}
	})
	eng.RunFor(2 * sim.Millisecond)

	var ranAt sim.Time
	ag := k.Spawn(SpawnOpts{Name: "agent", Class: ac, Affinity: MaskOf(0)},
		poller(100, BlockAction(), func(now sim.Time) { ranAt = now }))
	wakeAt := eng.Now()
	k.Wake(ag)
	eng.RunFor(sim.Millisecond)
	if ranAt == 0 {
		t.Fatal("agent never ran")
	}
	if d := ranAt - wakeAt; d > 2*sim.Microsecond {
		t.Fatalf("agent wake-to-run = %v; should preempt all classes immediately", d)
	}
}

func TestSetClassMoves(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, oneCPUTopo(), hw.DefaultCostModel())
	mq := NewMicroQuanta(k)
	cfs := NewCFS(k)
	defer k.Shutdown()
	th := k.Spawn(SpawnOpts{Name: "w", Class: cfs}, func(tc *TaskContext) {
		for i := 0; i < 1000; i++ {
			tc.Run(100 * sim.Microsecond)
		}
	})
	eng.RunFor(sim.Millisecond)
	k.SetClass(th, mq)
	if th.Class() != Class(mq) {
		t.Fatal("class not changed")
	}
	eng.RunFor(5 * sim.Millisecond)
	if th.CPUTime() < 4*sim.Millisecond {
		t.Fatalf("thread stalled after class change: cpuTime=%v", th.CPUTime())
	}
}

func TestThreadsListing(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	th := env.k.Spawn(SpawnOpts{Name: "w", Class: env.cfs}, func(tc *TaskContext) {
		tc.Run(sim.Microsecond)
	})
	if env.k.Thread(th.TID()) != th {
		t.Fatal("lookup by TID failed")
	}
	if env.k.Thread(th.TID()+1) != nil || env.k.Thread(-1) != nil {
		t.Fatal("lookup outside the TID range found a thread")
	}
	env.eng.RunFor(sim.Millisecond)
	if th.State() != StateDead {
		t.Fatalf("state = %v, want dead", th.State())
	}
}

// TestBusyAccountingSums: the switch and idle hooks see every busy/idle
// edge, so the busy time they add up is the time the CPU ran work.
func TestBusyAccountingSums(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	env.k.Spawn(SpawnOpts{Name: "w", Class: env.cfs}, func(tc *TaskContext) {
		tc.Run(2 * sim.Millisecond)
		tc.Sleep(2 * sim.Millisecond)
		tc.Run(2 * sim.Millisecond)
	})
	env.eng.RunFor(10 * sim.Millisecond)
	busy := env.busy.of(0)
	if busy < 4*sim.Millisecond || busy > 4*sim.Millisecond+100*sim.Microsecond {
		t.Fatalf("busy = %v, want ~4ms", busy)
	}
}

func TestMigrationPenaltyCharged(t *testing.T) {
	// A thread that runs on CPU 0, then is forced to CPU 1 (different
	// physical core), pays a cache-warmup penalty.
	env := newTestEnv(t, smallTopo())
	var t1, t2 sim.Time
	th := env.k.Spawn(SpawnOpts{Name: "m", Class: env.cfs, Affinity: MaskOf(0)}, func(tc *TaskContext) {
		tc.Run(100 * sim.Microsecond)
		t1 = tc.Now()
		repin(tc.Thread(), MaskOf(1))
		tc.Run(100 * sim.Microsecond)
		t2 = tc.Now()
	})
	_ = th
	env.eng.RunFor(10 * sim.Millisecond)
	if t1 == 0 || t2 == 0 {
		t.Fatal("did not finish")
	}
	second := t2 - t1
	first := t1
	if second <= first {
		t.Fatalf("migrated segment (%v) not slower than first (%v)", second, first)
	}
}

// repin moves a running thread's affinity to m and reschedules its CPU,
// so the thread's next segment runs on a CPU of m.
func repin(th *Thread, m Mask) {
	th.affinity = m
	th.k.Resched(th.cpu.ID)
}

func TestMaskOps(t *testing.T) {
	m := MaskOf(0, 3, 255)
	if !m.Has(0) || !m.Has(3) || !m.Has(255) || m.Has(1) {
		t.Fatal("mask membership wrong")
	}
	if m.Count() != 3 {
		t.Fatalf("count = %d", m.Count())
	}
	m.Clear(3)
	if m.Has(3) || m.Count() != 2 {
		t.Fatal("clear failed")
	}
	all := MaskAll(8)
	if all.Count() != 8 {
		t.Fatalf("MaskAll(8) = %d CPUs", all.Count())
	}
	inter := all.And(MaskOf(2, 9))
	if inter.Count() != 1 || !inter.Has(2) {
		t.Fatalf("intersect wrong: %v", inter)
	}
	var cpus []hw.CPUID
	MaskOf(5, 1, 64).ForEach(func(c hw.CPUID) bool {
		cpus = append(cpus, c)
		return true
	})
	if len(cpus) != 3 || cpus[0] != 1 || cpus[1] != 5 || cpus[2] != 64 {
		t.Fatalf("ForEach order wrong: %v", cpus)
	}
	if MaskOf(7).String() != "{7}" {
		t.Fatalf("String = %q", MaskOf(7).String())
	}
	var empty Mask
	if !empty.Empty() || empty.Count() != 0 {
		t.Fatal("empty mask wrong")
	}
}

func TestTickOverheadInjection(t *testing.T) {
	cost := hw.DefaultCostModel()
	cost.TickOverhead = 10 * sim.Microsecond
	eng := sim.NewEngine()
	k := New(eng, oneCPUTopo(), cost)
	cfs := NewCFS(k)
	defer k.Shutdown()
	var done sim.Time
	k.Spawn(SpawnOpts{Name: "w", Class: cfs}, func(tc *TaskContext) {
		tc.Run(5 * sim.Millisecond)
		done = tc.Now()
	})
	eng.RunFor(20 * sim.Millisecond)
	// 5ms of work crosses ~5 ticks, each adding 10us: completion should
	// exceed the no-overhead time by roughly 4-6 tick costs.
	base := 5*sim.Millisecond + cost.ContextSwitchCFS
	extra := done - base
	if extra < 30*sim.Microsecond || extra > 80*sim.Microsecond {
		t.Fatalf("tick overhead extra = %v, want ~50us", extra)
	}
}

func TestTicklessSkipsOverheadAndTicks(t *testing.T) {
	cost := hw.DefaultCostModel()
	cost.TickOverhead = 10 * sim.Microsecond
	eng := sim.NewEngine()
	k := New(eng, oneCPUTopo(), cost)
	cfs := NewCFS(k)
	defer k.Shutdown()
	k.SetTickless(0, true)
	hookFired := 0
	k.AddTickHook(func(*CPU) { hookFired++ })
	var done sim.Time
	k.Spawn(SpawnOpts{Name: "w", Class: cfs}, func(tc *TaskContext) {
		tc.Run(5 * sim.Millisecond)
		done = tc.Now()
	})
	eng.RunFor(20 * sim.Millisecond)
	if want := 5*sim.Millisecond + cost.ContextSwitchCFS; done != want {
		t.Fatalf("tickless completion = %v, want %v", done, want)
	}
	if hookFired != 0 {
		t.Fatalf("tick hooks fired %d times on tickless CPU", hookFired)
	}
}

// TestWorkEndsAtItsCompletion stops or re-times a burning segment at the
// instant rounding its progress to nearest would already cover the
// thread's work: the SMT sibling flipping idle or busy, or a preemption.
// The charge must leave work for the completion, which then asks the
// thread for its next request, and no CPU may ever be Stuck.
func TestWorkEndsAtItsCompletion(t *testing.T) {
	dilated := 1 / hw.DefaultCostModel().SMTPenalty
	// work is the shortest Run from 1 µs that a dilated segment finishes
	// by rounding at offset early, before its completion.
	work, early := sim.Duration(999), sim.Duration(0)
	for early == 0 {
		work++
		burn := sim.Duration(float64(work)/dilated + 0.5)
		for e := burn - 1; e > 0 && sim.Duration(float64(e)*dilated+0.5) >= work; e-- {
			early = e
		}
	}
	// A flip to busy re-times only a full-speed segment, whose progress
	// is exact, so its case fires at the segment's last nanosecond.
	cases := []struct {
		name    string
		sibBusy bool // the sibling runs when the segment starts
		// at is the event's offset into the segment, which lasts burn.
		at   func(burn sim.Duration) sim.Duration
		fire func(k *Kernel, sib, preempter *Thread)
	}{
		{"sibling-flips-idle", true, func(sim.Duration) sim.Duration { return early },
			func(k *Kernel, sib, _ *Thread) { k.Kill(sib) }},
		{"sibling-flips-busy", false, func(burn sim.Duration) sim.Duration { return burn - 1 },
			func(k *Kernel, sib, _ *Thread) { k.Wake(sib) }},
		{"preempted", true, func(sim.Duration) sim.Duration { return early },
			func(k *Kernel, _, pre *Thread) { k.Wake(pre) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := smallTopo()
			env := newTestEnv(t, topo)
			mq := NewMicroQuanta(env.k)
			sibCPU := topo.CPU(0).Sibling()
			// script's thread takes acts in order, then repeats the last.
			script := func(acts ...Action) ThreadFunc {
				return Steps(func(*Thread) (Action, bool) {
					a := acts[0]
					if len(acts) > 1 {
						acts = acts[1:]
					}
					return a, true
				})
			}
			sibBody := script(RunAction(sim.Millisecond))
			if !tc.sibBusy {
				sibBody = script(BlockAction(), RunAction(sim.Millisecond))
			}
			sib := env.k.Spawn(SpawnOpts{Name: "sib", Class: env.cfs, Affinity: MaskOf(sibCPU)}, sibBody)
			pre := env.k.Spawn(SpawnOpts{Name: "pre", Class: mq, Affinity: MaskOf(0)},
				script(BlockAction(), RunAction(10*sim.Microsecond), BlockAction()))
			var next sim.Time
			steps := 0
			a := env.k.Spawn(SpawnOpts{Name: "a", Class: env.cfs, Affinity: MaskOf(0)}, Steps(func(*Thread) (Action, bool) {
				if steps++; steps == 1 {
					return RunAction(work), true
				}
				next = env.k.Now()
				return BlockAction(), true
			}))
			c := env.k.CPU(0)
			for i := 0; !c.completion.Pending(); i++ {
				if i == 10000 {
					t.Fatal("a never started burning on cpu0")
				}
				env.eng.RunFor(1)
			}
			want := 1.0
			if tc.sibBusy {
				want = dilated
			}
			if c.curr != a || c.speed != want {
				t.Fatalf("cpu0 runs %v at speed %v, want a at %v", c.curr, c.speed, want)
			}
			at := c.segStart + tc.at(c.burnTime(a))
			env.eng.At(at, func() { tc.fire(env.k, sib, pre) })
			var stuck []string
			env.eng.OnDispatch = func(now sim.Time, _ int) {
				for _, id := range []hw.CPUID{0, sibCPU} {
					if cpu := env.k.CPU(id); cpu.Stuck() && len(stuck) < 3 {
						stuck = append(stuck, fmt.Sprintf("t=%v cpu%d %v", now, id, cpu.Curr()))
					}
				}
			}
			env.eng.RunFor(sim.Millisecond)
			if stuck != nil {
				t.Errorf("Stuck held: %v", stuck)
			}
			if next < at {
				t.Errorf("a took no request after its Run (event at %v, step %d at %v)", at, steps, next)
			}
		})
	}
}
