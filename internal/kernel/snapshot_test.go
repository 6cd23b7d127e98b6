package kernel

import (
	"testing"

	"ghost/internal/hw"
	"ghost/internal/sim"
)

// queueMembership is what a thread's class state says about the run
// queues: CFS onRq, rqCPU and heap index, and MicroQuanta onRq.
type queueMembership struct {
	cfsOnRq bool
	rqCPU   hw.CPUID
	idx     int
	mqOnRq  bool
}

// membership returns th's queue membership in its own class.
func membership(th *Thread) queueMembership {
	if th.class.Name() == "cfs" {
		return queueMembership{cfsOnRq: th.cfs.onRq, rqCPU: th.cfs.rqCPU, idx: th.cfs.idx}
	}
	return queueMembership{mqOnRq: th.mq.onRq}
}

// RestoreImage rebuilds each thread's run-queue membership from the
// queue lists alone. Each thread's flags for its class are scrambled
// before an in-place round trip, so a restore that keeps what it finds,
// or that sets only the listed threads, fails.
func TestRestoreImageDerivesQueueMembership(t *testing.T) {
	topo := hw.NewTopology(hw.Config{Name: "q", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 2, SMTWidth: 2})
	eng := sim.NewEngine()
	k := New(eng, topo, hw.DefaultCostModel())
	mq := NewMicroQuanta(k)
	cfs := NewCFS(k)
	defer k.Shutdown()
	// CPUs 0 and 1 each run three MicroQuanta and two CFS spinners:
	// MicroQuanta runs first, one thread at a time until its budget is
	// spent. A CFS sleeper on CPU 2 is blocked most of the time.
	spawn := func(cls Class, cpu hw.CPUID, body ThreadFunc) {
		th := k.Spawn(SpawnOpts{Name: "w", Class: cls, Affinity: MaskOf(cpu)}, body)
		th.SetBodyDesc(&BodyDesc{Kind: "test.spin"})
	}
	for i := 0; i < 10; i++ {
		cls := Class(mq)
		if i >= 6 {
			cls = cfs
		}
		spawn(cls, hw.CPUID(i%2), Steps(func(*Thread) (Action, bool) {
			return RunAction(50 * sim.Microsecond), true
		}))
	}
	spawn(cfs, 2, Steps(func(t *Thread) (Action, bool) {
		if !t.Ran() {
			return RunAction(5 * sim.Microsecond), true
		}
		return t.SleepAction(200 * sim.Microsecond), true
	}))
	eng.RunFor(950 * sim.Microsecond)

	want := map[TID]queueMembership{}
	var listed, unlisted [2]int
	throttled := 0
	for _, th := range k.live {
		want[th.tid] = membership(th)
		switch th.class {
		case Class(cfs):
			if th.cfs.onRq {
				listed[0]++
			} else {
				unlisted[0]++
			}
		case Class(mq):
			if th.mq.onRq {
				listed[1]++
			} else {
				unlisted[1]++
			}
			if th.mq.throttled {
				throttled++
			}
		}
	}
	if listed[0] == 0 || unlisted[0] == 0 || listed[1] == 0 || unlisted[1] == 0 || throttled == 0 {
		t.Fatalf("CFS threads queued %d, not %d; MicroQuanta queued %d, not %d, throttled %d: the round trip checks too little",
			listed[0], unlisted[0], listed[1], unlisted[1], throttled)
	}
	img, err := k.SaveImage()
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range k.live {
		if th.class == Class(cfs) {
			th.cfs.onRq, th.cfs.rqCPU, th.cfs.idx = !th.cfs.onRq, 3, 7
		} else {
			th.mq.onRq = !th.mq.onRq
		}
	}
	if err := k.RestoreImage(img); err != nil {
		t.Fatal(err)
	}
	for _, th := range k.live {
		if got := membership(th); got != want[th.tid] {
			t.Errorf("%v (%s): restored %+v, want %+v", th, th.class.Name(), got, want[th.tid])
		}
	}
}
