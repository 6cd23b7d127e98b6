package ghostcore

import (
	"testing"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// countInstalls wraps the class's install callback so a test can count
// the install IPIs the engine dispatches.
func countInstalls(env *ghostEnv) *int {
	n := new(int)
	fire := env.g.installFn
	env.g.installFn = func(a any) {
		*n++
		fire(a)
	}
	return n
}

// TestCommitDisplacesInflightLatch: a commit to a CPU whose first commit
// is still in flight hands the first thread back with THREAD_PREEMPTED
// at commit time, and the first install never fires.
func TestCommitDisplacesInflightLatch(t *testing.T) {
	env := newGhostEnv(t)
	first := env.spawnGhost("first", 10*sim.Microsecond, 1)
	second := env.spawnGhost("second", 10*sim.Microsecond, 1)
	env.enc.DefaultQueue().Drain(hw.NoCPU)
	installs := countInstalls(env)

	t1 := env.enc.TxnCreate(first.TID(), 1)
	t2 := env.enc.TxnCreate(second.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{t1})
	env.enc.TxnsCommit(nil, []*Txn{t2})
	if t1.Status != TxnCommitted || t2.Status != TxnCommitted {
		t.Fatalf("statuses = %v, %v, want both committed", t1.Status, t2.Status)
	}
	msgs := env.enc.DefaultQueue().Drain(hw.NoCPU)
	if len(msgs) != 1 || msgs[0].Type != MsgThreadPreempted || msgs[0].TID != first.TID() {
		t.Fatalf("messages at commit time = %v, want THREAD_PREEMPTED for T%d", msgs, first.TID())
	}
	if runnable, latched := env.enc.DebugThreadState(first); !runnable || latched {
		t.Fatalf("displaced thread: runnable %v latched %v, want runnable and unlatched", runnable, latched)
	}
	if got := env.enc.LatchedFor(1); got != second {
		t.Fatalf("cpu 1 latched %v, want %v", got, second)
	}

	env.eng.RunFor(sim.Millisecond)
	if *installs != 1 {
		t.Fatalf("%d install IPIs dispatched, want 1: the displaced install must not fire", *installs)
	}
	if second.State() != kernel.StateDead || first.CPUTime() != 0 {
		t.Fatalf("second %v, first ran %v: only the second commit may run", second.State(), first.CPUTime())
	}
}

// TestRecommitAfterRecallWaitsForItsIPI: a thread recalled and committed
// again to the same CPU before the first IPI lands switches in at the
// second IPI; the recalled commit's install does nothing.
func TestRecommitAfterRecallWaitsForItsIPI(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("w", 10*sim.Microsecond, 1)
	delay := env.k.Cost().RemoteCommitTargetCost(1, false)

	txn := env.enc.TxnCreate(th.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{txn})
	if n := env.enc.TxnsRecall([]*Txn{txn}); n != 1 {
		t.Fatalf("recalled %d, want 1", n)
	}
	env.eng.RunFor(delay / 2)
	again := env.enc.TxnCreate(th.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{again})
	if again.Status != TxnCommitted {
		t.Fatalf("recommit status = %v", again.Status)
	}

	// Past the first IPI, before the second.
	env.eng.RunFor(delay * 3 / 4)
	if th.State() != kernel.StateRunnable || env.enc.LatchedFor(1) != th {
		t.Fatalf("after the recalled commit's IPI: state %v, cpu 1 latched %v; want runnable and still in flight",
			th.State(), env.enc.LatchedFor(1))
	}
	env.eng.RunFor(sim.Millisecond)
	if th.State() != kernel.StateDead {
		t.Fatalf("thread state = %v after the second IPI, want dead", th.State())
	}
}
