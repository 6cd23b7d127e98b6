package policies_test

import (
	"reflect"
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/faults"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/trace"
	"ghost/internal/workload"
)

// TestRepollOnlyWhileWorkWaits: a centralized agent whose queues are
// empty arms no repoll timer, however long its one thread overruns the
// slice or quantum. So over 5 ms of one long spinner, every agent step
// is one the kernel's messages (or the start-up wake) asked for. An
// agent that re-armed its expiry timer with nothing queued would step
// about once per microsecond once the spinner overran its slice.
func TestRepollOnlyWhileWorkWaits(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  kernel.Mask
		pol  func() agentsdk.GlobalPolicy
	}{
		{"shinjuku", kernel.MaskOf(0, 1), func() agentsdk.GlobalPolicy { return policies.NewShinjuku() }},
		{"central-fifo-rr", kernel.MaskOf(0, 1), func() agentsdk.GlobalPolicy {
			p := policies.NewCentralFIFO()
			p.Quantum = 20 * sim.Microsecond
			return p
		}},
		{"coresched", kernel.MaskAll(8), func() agentsdk.GlobalPolicy {
			p := policies.NewCoreSched(vmOf)
			p.Quantum = 100 * sim.Microsecond
			return p
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, topo8(), tc.enc)
			tr := trace.NewMetricsOnly()
			trace.Attach(tr, e.k)
			e.g.AddObserver(tr)
			set := agentsdk.Start(e.k, e.enc, e.ac, tc.pol(), agentsdk.Global())
			spin := e.enc.SpawnThread(kernel.SpawnOpts{Name: "spin"}, func(tc *kernel.TaskContext) {
				tc.Run(50 * sim.Millisecond)
			})
			e.eng.RunFor(5 * sim.Millisecond)
			if spin.State() != kernel.StateRunning {
				t.Fatalf("spinner is %v, want running", spin.State())
			}
			if steps, msgs := set.StepsExecuted, tr.Metrics().Enclaves[e.enc.ID()].MsgsPosted; steps > msgs+2 {
				t.Fatalf("%d agent steps for %d kernel messages: the agent repolls with nothing queued", steps, msgs)
			}
		})
	}
}

// TestFailedCommitRepolls: a commit that fails puts its thread back on
// a queue after Schedule has decided, so OnTxnFail must arm the repoll
// itself. Here a spinner holds one CPU and every commit fails for 20 µs
// while a short thread wakes; the agent sees no further message, so
// without a timer armed from OnTxnFail the short thread would wait for
// the spinner's 50 ms.
func TestFailedCommitRepolls(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  kernel.Mask
		pol  func() agentsdk.GlobalPolicy
	}{
		{"shinjuku", kernel.MaskOf(0, 1, 2), func() agentsdk.GlobalPolicy { return policies.NewShinjuku() }},
		{"central-fifo-rr", kernel.MaskOf(0, 1, 2), func() agentsdk.GlobalPolicy {
			p := policies.NewCentralFIFO()
			p.Quantum = 20 * sim.Microsecond
			return p
		}},
		{"coresched", kernel.MaskAll(8), func() agentsdk.GlobalPolicy {
			p := policies.NewCoreSched(vmOf)
			p.Quantum = 100 * sim.Microsecond
			return p
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, topo8(), tc.enc)
			e.k.SetFaults(faults.NewInjector(e.eng, faults.NewPlan(1).FailTxns(100*sim.Microsecond, 20*sim.Microsecond, 1)))
			set := agentsdk.Start(e.k, e.enc, e.ac, tc.pol(), agentsdk.Global())
			e.enc.SpawnThread(kernel.SpawnOpts{Name: "spin"}, func(tc *kernel.TaskContext) {
				tc.Run(50 * sim.Millisecond)
			})
			e.eng.RunFor(100 * sim.Microsecond)
			short := e.enc.SpawnThread(kernel.SpawnOpts{Name: "short"}, func(tc *kernel.TaskContext) {
				tc.Run(10 * sim.Microsecond)
			})
			e.eng.RunFor(sim.Millisecond)
			if short.State() != kernel.StateDead {
				t.Fatalf("short thread is %v after 1 ms, want done", short.State())
			}
			if set.TxnsFailed == 0 {
				t.Fatal("no commit failed: the run does not exercise OnTxnFail")
			}
		})
	}
}

// TestCutRoundRepolls: a Shinjuku-Shenango round that MaxCommits cuts
// short leaves batch work queued with CPUs idle and the FIFO empty, so
// the agent must still arm its repoll. Here a latency spinner holds one
// CPU and two batch threads wake together with two CPUs idle; with one
// commit per round only one is placed, and no later message would step
// the agent for the other.
func TestCutRoundRepolls(t *testing.T) {
	e := newEnv(t, topo8(), kernel.MaskOf(0, 1, 2, 3))
	pol := policies.NewShinjukuShenango(func(t *kernel.Thread) bool { return t.Name() == "batch" })
	pol.MaxCommits = 1
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())
	e.enc.SpawnThread(kernel.SpawnOpts{Name: "spin"}, func(tc *kernel.TaskContext) {
		tc.Run(50 * sim.Millisecond)
	})
	e.eng.RunFor(100 * sim.Microsecond)
	var batch []*kernel.Thread
	for i := 0; i < 2; i++ {
		batch = append(batch, e.enc.SpawnThread(kernel.SpawnOpts{Name: "batch"}, func(tc *kernel.TaskContext) {
			tc.Run(50 * sim.Millisecond)
		}))
	}
	e.eng.RunFor(sim.Millisecond)
	for _, th := range batch {
		if th.State() != kernel.StateRunning {
			t.Fatalf("batch thread %v is %v after 1 ms, want running", th, th.State())
		}
	}
}

// TestOnePendingRepollPerSet: however often a policy asks for a repoll,
// its agent set has at most one repoll timer pending, checked before
// every event the engine dispatches. Six threads of two VMs alternate
// runs of different lengths with short sleeps, so work stays queued,
// messages keep the agent stepping and the policies ask on most steps.
func TestOnePendingRepollPerSet(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  kernel.Mask
		pol  func() agentsdk.GlobalPolicy
	}{
		{"shinjuku", kernel.MaskOf(0, 1, 2), func() agentsdk.GlobalPolicy { return policies.NewShinjuku() }},
		{"coresched", kernel.MaskAll(8), func() agentsdk.GlobalPolicy {
			p := policies.NewCoreSched(vmOf)
			p.Quantum = 200 * sim.Microsecond
			return p
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, topo8(), tc.enc)
			agentsdk.Start(e.k, e.enc, e.ac, tc.pol(), agentsdk.Global())
			for i := 0; i < 6; i++ {
				work := sim.Duration(20+40*i) * sim.Microsecond
				e.enc.SpawnThread(kernel.SpawnOpts{Name: "req", Tag: &workload.VMTag{VM: i % 2}}, func(tc *kernel.TaskContext) {
					for j := 0; j < 20; j++ {
						tc.Run(work)
						tc.Sleep(10 * sim.Microsecond)
					}
				})
			}
			var repollCode uintptr
			for _, kind := range agentsdk.SnapshotEvents(nil) {
				if kind.Name == "agentsdk.repoll" {
					repollCode = reflect.ValueOf(kind.Fn).Pointer()
				}
			}
			most, samples := 0, 0
			e.eng.OnDispatch = func(now sim.Time, _ int) {
				pending := map[any]int{}
				for _, pe := range e.eng.Pending() {
					if pe.AFn != nil && reflect.ValueOf(pe.AFn).Pointer() == repollCode {
						pending[pe.Arg]++
					}
				}
				for _, n := range pending {
					most = max(most, n)
					samples++
				}
				if most > 1 {
					t.Fatalf("t=%v: an agent set has %d pending repolls", now, most)
				}
			}
			e.eng.RunFor(5 * sim.Millisecond)
			if samples == 0 {
				t.Fatal("no repoll was ever pending: the run does not exercise the timer")
			}
		})
	}
}
