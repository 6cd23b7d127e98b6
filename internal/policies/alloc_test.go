package policies_test

import (
	"runtime"
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
)

// allocMeter wraps a global policy and, while on, counts the heap
// allocations made inside its callbacks, read from the allocator's
// counters around each call. The kernel, ghostcore and agentsdk work of
// the same steps is not counted.
type allocMeter struct {
	agentsdk.GlobalPolicy
	on            bool
	mallocs, busy uint64
	before, after runtime.MemStats
}

func (m *allocMeter) measure(f func()) {
	if !m.on {
		f()
		return
	}
	runtime.ReadMemStats(&m.before)
	f()
	runtime.ReadMemStats(&m.after)
	m.mallocs += m.after.Mallocs - m.before.Mallocs
}

func (m *allocMeter) OnMessage(ctx *agentsdk.Context, msg ghostcore.Message) {
	m.measure(func() { m.GlobalPolicy.OnMessage(ctx, msg) })
}

func (m *allocMeter) Schedule(ctx *agentsdk.Context) (out []agentsdk.Assignment) {
	m.measure(func() { out = m.GlobalPolicy.Schedule(ctx) })
	if m.on && len(out) > 0 {
		m.busy++
	}
	return out
}

func (m *allocMeter) OnTxnFail(ctx *agentsdk.Context, a agentsdk.Assignment, s ghostcore.TxnStatus) {
	m.measure(func() { m.GlobalPolicy.OnTxnFail(ctx, a, s) })
}

// policyAllocs runs six Run/Sleep workers on a three-CPU share of a
// four-CPU enclave under pol, warms up, and returns the allocations the
// policy's callbacks made over a 1 ms window and how many of its
// Schedule calls assigned work there.
func policyAllocs(t *testing.T, pol agentsdk.GlobalPolicy) (mallocs, busy uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := newEnv(t, topo8(), kernel.MaskOf(0, 1, 2, 3))
	// Shinjuku re-arms its slice timer every step, so the engine holds
	// dozens of timers at once. A dense burst of no-op events grows the
	// engine's queue storage to that size first; otherwise its rare
	// growth steps would be charged to the policy.
	for d := sim.Duration(0); d < 300*sim.Microsecond; d += 16 {
		e.eng.AfterCall(d, func(any) {}, nil)
	}
	e.eng.RunFor(300 * sim.Microsecond)
	m := &allocMeter{GlobalPolicy: pol}
	agentsdk.Start(e.k, e.enc, e.ac, m, agentsdk.Global())
	for i := 0; i < 6; i++ {
		e.enc.SpawnThread(kernel.SpawnOpts{Name: "worker"}, func(tc *kernel.TaskContext) {
			for {
				tc.Run(40 * sim.Microsecond)
				tc.Sleep(20 * sim.Microsecond)
			}
		})
	}
	e.eng.RunFor(20 * sim.Millisecond)
	m.on = true
	e.eng.RunFor(sim.Millisecond)
	return m.mallocs, m.busy
}

// A warm Search policy allocates nothing per step: Schedule reuses its
// result and skipped buffers, and the runtime heap keeps its slots on
// the threads instead of in per-push entries.
func TestSearchScheduleAllocFree(t *testing.T) {
	mallocs, busy := policyAllocs(t, policies.NewSearch())
	if busy == 0 {
		t.Fatal("no Schedule call assigned work in the measured window")
	}
	if mallocs != 0 {
		t.Fatalf("Search callbacks allocated %d times over %d assigning steps, want 0", mallocs, busy)
	}
}

// A warm Shinjuku policy allocates nothing per step, timeslice
// preemptions included.
func TestShinjukuScheduleAllocFree(t *testing.T) {
	mallocs, busy := policyAllocs(t, policies.NewShinjuku())
	if busy == 0 {
		t.Fatal("no Schedule call assigned work in the measured window")
	}
	if mallocs != 0 {
		t.Fatalf("Shinjuku callbacks allocated %d times over %d assigning steps, want 0", mallocs, busy)
	}
}
