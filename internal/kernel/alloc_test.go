package kernel

import (
	"testing"

	"ghost/internal/hw"
	"ghost/internal/sim"
)

// A wake-time CFS placement that narrows to the last CPU's L3 domain
// reads the kernel's per-CCX mask table and allocates nothing.
func TestCFSSelectCPUAllocFree(t *testing.T) {
	topo := hw.NewTopology(hw.Config{Name: "2ccx", Sockets: 1, CCXsPerSocket: 2, CoresPerCCX: 2, SMTWidth: 1})
	env := newTestEnv(t, topo)
	th := env.k.Spawn(SpawnOpts{Name: "w", Class: env.cfs, Affinity: MaskOf(1, 2, 3)}, func(tc *TaskContext) {})
	// Last ran on cpu0, now outside its mask: the domain is cpu0's CCX
	// {0, 1} intersected with the mask.
	th.lastCPU = 0
	if got := env.cfs.SelectCPU(th); got != 1 {
		t.Fatalf("SelectCPU = cpu%d, want cpu1 (same CCX as cpu0)", got)
	}
	if avg := testing.AllocsPerRun(100, func() { env.cfs.SelectCPU(th) }); avg != 0 {
		t.Fatalf("SelectCPU allocates %.1f times, want 0", avg)
	}
}

// Mailbox Put and Get reuse the item and waiter buffers: a producer and
// a consumer handing items over on one CPU allocate nothing once warm.
func TestMailboxAllocFree(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	mb := NewMailbox[int](env.k)
	got := 0
	env.k.Spawn(SpawnOpts{Name: "consumer", Class: env.cfs}, func(tc *TaskContext) {
		for {
			mb.Get(tc)
			got++
		}
	})
	env.k.Spawn(SpawnOpts{Name: "producer", Class: env.cfs}, func(tc *TaskContext) {
		for i := 0; ; i++ {
			mb.Put(i)
			mb.Put(i)
			tc.Run(sim.Microsecond)
			tc.Sleep(sim.Microsecond)
		}
	})
	run := func(n int) {
		for target := got + n; got < target; {
			env.eng.RunFor(sim.Microsecond)
		}
	}
	run(1000)
	if avg := testing.AllocsPerRun(100, func() { run(100) }); avg != 0 {
		t.Fatalf("100 mailbox hand-offs allocate %.1f times, want 0", avg)
	}
}
