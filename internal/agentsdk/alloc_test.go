package agentsdk_test

import (
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
)

// A warm global agent step allocates nothing: the runner reuses its
// transaction buffers and the Search policy its result slice and heap.
// Six workers loop Run/Sleep on a three-CPU share of the enclave, so
// every window drains wakeups, schedules and commits.
func TestGlobalStepAllocFree(t *testing.T) {
	e := newEnv(t, 4)
	set := agentsdk.Start(e.k, e.enc, e.ac, policies.NewSearch(), agentsdk.Global())
	for i := 0; i < 6; i++ {
		e.enc.SpawnThread(kernel.SpawnOpts{Name: "worker"}, func(tc *kernel.TaskContext) {
			for {
				tc.Run(40 * sim.Microsecond)
				tc.Sleep(20 * sim.Microsecond)
			}
		})
	}
	e.eng.RunFor(20 * sim.Millisecond)
	committed := set.TxnsCommitted
	if avg := testing.AllocsPerRun(20, func() { e.eng.RunFor(100 * sim.Microsecond) }); avg != 0 {
		t.Fatalf("100µs of global agent steps allocate %.1f times, want 0", avg)
	}
	if set.TxnsCommitted == committed {
		t.Fatal("no transactions committed in the measured windows")
	}
}

// A warm per-CPU agent step allocates nothing: the runner commits its one
// transaction from a runner-owned Txn through a runner-owned slice.
// Workers loop Run/Sleep, so every window drains wakeups and commits.
func TestLocalStepAllocFree(t *testing.T) {
	e := newEnv(t, 4)
	set := agentsdk.Start(e.k, e.enc, e.ac, policies.NewPerCPUFIFO(), agentsdk.PerCPU())
	for i := 0; i < 6; i++ {
		e.enc.SpawnThread(kernel.SpawnOpts{Name: "worker"}, func(tc *kernel.TaskContext) {
			for {
				tc.Run(40 * sim.Microsecond)
				tc.Sleep(20 * sim.Microsecond)
			}
		})
	}
	e.eng.RunFor(20 * sim.Millisecond)
	committed := set.TxnsCommitted
	if avg := testing.AllocsPerRun(20, func() { e.eng.RunFor(100 * sim.Microsecond) }); avg != 0 {
		t.Fatalf("100µs of per-CPU agent steps allocate %.1f times, want 0", avg)
	}
	if set.TxnsCommitted == committed {
		t.Fatal("no transactions committed in the measured windows")
	}
}
