package ghostcore

import (
	"testing"

	"ghost/internal/faults"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// RestoreImage recounts each thread's pending messages from the queued
// messages that name it: a fault-duplicated message counts twice, a
// dropped one not at all, and a drained one no more. The counts are
// scrambled before an in-place round trip, so a restore that keeps what
// it finds fails.
func TestRestoreImageCountsPendingMsgs(t *testing.T) {
	env := newGhostEnv(t)
	plan := faults.NewPlan(1).
		DupMsgs(0, 10*sim.Microsecond, 1).
		DropMsgs(10*sim.Microsecond, 10*sim.Microsecond, 1)
	env.k.SetFaults(faults.NewInjector(env.eng, plan))
	env.eng.RunFor(sim.Microsecond)
	dup := env.spawnGhost("dup", 10*sim.Microsecond, 1)
	env.eng.RunFor(14 * sim.Microsecond)
	dropped := env.spawnGhost("dropped", 10*sim.Microsecond, 1)
	env.eng.RunFor(10 * sim.Microsecond)
	plain := env.spawnGhost("plain", 10*sim.Microsecond, 1)
	if _, ok := env.enc.DefaultQueue().Pop(); !ok {
		t.Fatal("default queue is empty")
	}

	want := map[*kernel.Thread]int{}
	for _, th := range []*kernel.Thread{dup, dropped, plain} {
		want[th] = gstate(th).pendingMsgs
	}
	if want[dup] < 2 || want[dropped] != 0 || want[plain] == 0 {
		t.Fatalf("pending messages %d duplicated, %d dropped, %d plain: the faults did not shape the counts",
			want[dup], want[dropped], want[plain])
	}
	rec, err := env.g.SaveImage()
	if err != nil {
		t.Fatal(err)
	}
	for th := range want {
		gstate(th).pendingMsgs = 99
	}
	if err := env.g.RestoreImage(rec); err != nil {
		t.Fatal(err)
	}
	for th, n := range want {
		if got := gstate(th).pendingMsgs; got != n {
			t.Errorf("%v: %d pending messages after restore, want %d", th, got, n)
		}
	}
}

// DestroyQueue drops a queue's undrained messages from their threads'
// pending counts: a thread whose one message sat in the destroyed queue
// can then be associated with another queue, and an in-place restore,
// which counts the queued messages, leaves its count where it was.
func TestDestroyQueueUncountsItsMessages(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("th", 10*sim.Microsecond, 1)
	env.enc.DefaultQueue().Drain(hw.NoCPU)
	side := env.enc.CreateQueue("side")
	if err := env.enc.AssociateQueue(th, side); err != nil {
		t.Fatal(err)
	}
	env.g.postThreadMsg(th, MsgThreadWakeup)
	if side.Len() != 1 || gstate(th).pendingMsgs != 1 {
		t.Fatalf("side queue holds %d messages, thread counts %d; want 1 and 1", side.Len(), gstate(th).pendingMsgs)
	}
	env.enc.DestroyQueue(side)
	if err := env.enc.AssociateQueue(th, env.enc.DefaultQueue()); err != nil {
		t.Fatalf("after DestroyQueue: %v", err)
	}
	rec, err := env.g.SaveImage()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.g.RestoreImage(rec); err != nil {
		t.Fatal(err)
	}
	if got := gstate(th).pendingMsgs; got != 0 {
		t.Fatalf("%d pending messages after restore, want 0", got)
	}
}
