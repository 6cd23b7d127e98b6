package kernel

import (
	"fmt"
	"testing"

	"ghost/internal/hw"
	"ghost/internal/sim"
)

// TestKernelStressInvariants runs a randomized mixed workload (CFS +
// MicroQuanta threads with random run/sleep/yield/affinity behaviour)
// and checks global invariants at every tick:
//
//   - a thread is running on at most one CPU, and that CPU's Curr is it
//   - every running thread is on a CPU its affinity allows
//   - CPU busy accounting never exceeds wall time
//   - no runnable thread starves for more than a balance period + slack
//
// and, after every event, that the kernel's masks equal the sets they
// mirror (CheckMasks): IdleMask the CPUs whose Idle() is true, the
// pending mask the CPUs with a resched pending, and CFS's queued mask the
// CPUs with a non-empty runqueue; the same must hold after a SaveImage →
// RestoreImage round trip. After every event no CPU is Stuck either: a
// thread running a Run request always has its completion pending.
func TestKernelStressInvariants(t *testing.T) {
	topo := hw.NewTopology(hw.Config{Name: "s", Sockets: 2, CCXsPerSocket: 2, CoresPerCCX: 2, SMTWidth: 2})
	eng := sim.NewEngine()
	k := New(eng, topo, hw.DefaultCostModel())
	busy := meterBusy(k)
	mq := NewMicroQuanta(k)
	cfs := NewCFS(k)
	defer k.Shutdown()
	r := sim.NewRand(1234)

	var threads []*Thread
	for i := 0; i < 40; i++ {
		cls := Class(cfs)
		if i%7 == 0 {
			cls = mq
		}
		var aff Mask
		if i%5 == 0 {
			// Random restricted affinity of 3 CPUs.
			for j := 0; j < 3; j++ {
				aff.Set(hw.CPUID(r.Intn(topo.NumCPUs())))
			}
		}
		th := k.Spawn(SpawnOpts{Name: "w", Class: cls, Affinity: aff, Nice: r.Intn(10) - 5},
			func(tc *TaskContext) {
				lr := sim.NewRand(uint64(tc.Thread().TID()))
				for it := 0; it < 300; it++ {
					switch lr.Intn(3) {
					case 0:
						tc.Run(sim.Duration(1+lr.Intn(200)) * sim.Microsecond)
					case 1:
						tc.Sleep(sim.Duration(1+lr.Intn(100)) * sim.Microsecond)
					case 2:
						tc.Run(sim.Duration(1+lr.Intn(20)) * sim.Microsecond)
						tc.Yield()
					}
				}
			})
		threads = append(threads, th)
	}

	violations := 0
	var queuedSeen, pendingSeen bool
	checkMasks := func(when string) {
		if err := CheckMasks(k); err != nil {
			t.Errorf("%s: %v", when, err)
			violations++
		}
	}
	// The round trip below restores no events, so only the run checks
	// the completions.
	checkRules := func(when string) {
		checkMasks(when)
		for _, c := range k.cpus {
			if c.Stuck() {
				t.Errorf("%s: cpu%d is stuck: %v runs a Run request with no completion pending", when, c.ID, c.curr)
				violations++
			}
		}
	}
	eng.OnDispatch = func(now sim.Time, _ int) {
		// Dispatch of event n+1 observes the state event n left.
		if violations < 10 {
			checkRules(fmt.Sprintf("t=%v", now))
		}
		queuedSeen = queuedSeen || !cfs.queued.Empty()
		pendingSeen = pendingSeen || !k.pending.Empty()
	}
	check := func(now sim.Time) {
		onCPU := map[TID]hw.CPUID{}
		for i := 0; i < k.NumCPUs(); i++ {
			c := k.CPU(hw.CPUID(i))
			cur := c.Curr()
			if cur == nil {
				continue
			}
			if prev, dup := onCPU[cur.TID()]; dup {
				t.Errorf("t=%v: %v on cpus %d and %d", now, cur, prev, i)
				violations++
			}
			onCPU[cur.TID()] = hw.CPUID(i)
			if cur.OnCPU() != hw.CPUID(i) {
				t.Errorf("t=%v: cpu%d.Curr=%v but thread.OnCPU=%d", now, i, cur, cur.OnCPU())
				violations++
			}
			if !cur.Affinity().Has(hw.CPUID(i)) {
				t.Errorf("t=%v: %v running outside affinity on cpu%d", now, cur, i)
				violations++
			}
			if b := busy.of(hw.CPUID(i)); b > now+sim.Microsecond {
				t.Errorf("t=%v: cpu%d busy %v exceeds wall", now, i, b)
				violations++
			}
		}
		for _, th := range threads {
			if th.State() == StateRunnable && now-th.WakeTime() > 50*sim.Millisecond {
				t.Errorf("t=%v: %v runnable for %v", now, th, now-th.WakeTime())
				violations++
			}
		}
	}
	sim.NewTicker(eng, 250*sim.Microsecond, func(now sim.Time) {
		if violations < 10 {
			check(now)
		}
	})
	eng.RunFor(150 * sim.Millisecond)
	done := 0
	for _, th := range threads {
		if th.State() == StateDead {
			done++
		}
	}
	if done < 35 {
		t.Fatalf("only %d/40 threads finished", done)
	}
	if !queuedSeen || !pendingSeen {
		t.Fatalf("the run never queued a CFS thread (%v) or left a resched pending (%v): the mask checks are vacuous", queuedSeen, pendingSeen)
	}
	checkRules("end of run")

	// Round trip with some CPUs busy and some idle: RestoreImage must
	// re-derive the mask rather than keep whatever it finds.
	for _, cpu := range []hw.CPUID{1, 6, 11} {
		th := k.Spawn(SpawnOpts{Name: "spin", Class: cfs, Affinity: MaskOf(cpu)}, Steps(func(*Thread) (Action, bool) {
			return RunAction(100 * sim.Microsecond), true
		}))
		th.SetBodyDesc(&BodyDesc{Kind: "test.spin"}) // a machine, so saveable
	}
	eng.RunFor(sim.Millisecond)
	before := k.IdleMask()
	if before.Empty() || before.Count() == k.NumCPUs() {
		t.Fatalf("round trip needs a mixed idle set, got %v", before)
	}
	img, err := k.SaveImage()
	if err != nil {
		t.Fatal(err)
	}
	// The complements: RestoreImage must set and clear bits.
	all := MaskAll(k.NumCPUs())
	k.idle, k.pending, cfs.queued = all.AndNot(before), all.AndNot(k.pending), all.AndNot(cfs.queued)
	if err := k.RestoreImage(img); err != nil {
		t.Fatal(err)
	}
	checkMasks("after SaveImage/RestoreImage")
	if got := k.IdleMask(); got != before {
		t.Errorf("round trip changed IdleMask: %v, was %v", got, before)
	}
}

// TestKernelStressDeterminism reruns a prefix of the stress workload and
// demands bit-identical scheduling outcomes.
func TestKernelStressDeterminism(t *testing.T) {
	run := func() (uint64, sim.Duration) {
		topo := hw.NewTopology(hw.Config{Name: "d", Sockets: 1, CCXsPerSocket: 2, CoresPerCCX: 2, SMTWidth: 2})
		eng := sim.NewEngine()
		k := New(eng, topo, hw.DefaultCostModel())
		cfs := NewCFS(k)
		defer k.Shutdown()
		var total sim.Duration
		var ths []*Thread
		for i := 0; i < 12; i++ {
			ths = append(ths, k.Spawn(SpawnOpts{Name: "w", Class: cfs}, func(tc *TaskContext) {
				lr := sim.NewRand(uint64(tc.Thread().TID()) * 31)
				for it := 0; it < 100; it++ {
					tc.Run(sim.Duration(1+lr.Intn(100)) * sim.Microsecond)
					if lr.Intn(3) == 0 {
						tc.Sleep(sim.Duration(lr.Intn(50)) * sim.Microsecond)
					}
				}
			}))
		}
		eng.RunFor(40 * sim.Millisecond)
		for _, th := range ths {
			total += th.CPUTime()
		}
		return eng.Executed, total
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", e1, t1, e2, t2)
	}
}

// TestCPUTimeConservation: the sum of all thread CPU time cannot exceed
// total CPU capacity, and a saturated machine should be near 100% busy.
func TestCPUTimeConservation(t *testing.T) {
	topo := hw.NewTopology(hw.Config{Name: "c", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 2, SMTWidth: 1})
	eng := sim.NewEngine()
	k := New(eng, topo, hw.DefaultCostModel())
	cfs := NewCFS(k)
	defer k.Shutdown()
	var ths []*Thread
	for i := 0; i < 6; i++ {
		ths = append(ths, k.Spawn(SpawnOpts{Name: "w", Class: cfs}, func(tc *TaskContext) {
			for {
				tc.Run(100 * sim.Microsecond)
			}
		}))
	}
	const dur = 50 * sim.Millisecond
	eng.RunFor(dur)
	var total sim.Duration
	for _, th := range ths {
		total += th.CPUTime()
	}
	capacity := 2 * dur
	if total > capacity {
		t.Fatalf("cpu time %v exceeds capacity %v", total, capacity)
	}
	if float64(total) < 0.95*float64(capacity) {
		t.Fatalf("saturated machine only %.0f%% utilized", 100*float64(total)/float64(capacity))
	}
}
