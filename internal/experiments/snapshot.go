package experiments

import (
	"bytes"
	"fmt"

	"ghost"

	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/snap"
)

// The fig5 yield-looper is registered as a resumable body so the fig5
// driver can run the snapshot smoke (Options.SnapshotEvery): snapshot a
// warmed machine, restore it, and require the restored machine's
// forward digest to match the original run's byte-for-byte.

func init() {
	snap.RegisterBody("experiments.fig5-looper", func(_ *snap.RestoreCtx, rec kernel.BodyRec, _ *sim.Rand) (kernel.ThreadFunc, error) {
		if len(rec.Args) != 1 {
			return nil, fmt.Errorf("fig5-looper wants 1 arg, got %d", len(rec.Args))
		}
		work := sim.Duration(rec.Args[0])
		if work <= 0 {
			// The looper never spawns with such work: it would step
			// forever at its first zero-length Run.
			return nil, fmt.Errorf("%w: fig5-looper work %d is not positive", snap.ErrCorrupt, work)
		}
		return fig5Looper(work), nil
	})
}

// fig5Looper is the fig5 workload body: one transaction is work worth of
// CPU followed by a yield.
func fig5Looper(work sim.Duration) kernel.ThreadFunc {
	return kernel.Steps(func(t *kernel.Thread) (kernel.Action, bool) {
		if t.Ran() {
			return kernel.YieldAction(), true
		}
		return kernel.RunAction(work), true
	})
}

// fig5SnapshotSmoke verifies restore transparency on a live experiment
// machine: snapshot m at the current quiescent barrier, run the original
// to until, restore the snapshot through the wire codec into a second
// machine and run it to the same time, then compare the two core
// digests. A mismatch is a determinism bug, not a measurement artifact —
// fail loudly.
func fig5SnapshotSmoke(m *machine, until sim.Time) {
	snapshot, err := m.m.Snapshot()
	if err != nil {
		panic(fmt.Sprintf("experiments: fig5 snapshot smoke: %v", err))
	}
	var wire bytes.Buffer
	if _, err := snapshot.WriteTo(&wire); err != nil {
		panic(fmt.Sprintf("experiments: fig5 snapshot smoke: %v", err))
	}
	s, err := ghost.ReadSnapshot(&wire)
	if err != nil {
		panic(fmt.Sprintf("experiments: fig5 snapshot smoke: %v", err))
	}
	m.m.RunUntil(until)
	want, err := m.m.Snapshot()
	if err != nil {
		panic(fmt.Sprintf("experiments: fig5 snapshot smoke: %v", err))
	}
	restored, err := ghost.Restore(s)
	if err != nil {
		panic(fmt.Sprintf("experiments: fig5 snapshot smoke: restore: %v", err))
	}
	defer restored.Shutdown()
	restored.RunUntil(until)
	got, err := restored.Snapshot()
	if err != nil {
		panic(fmt.Sprintf("experiments: fig5 snapshot smoke: %v", err))
	}
	if got.Digest() != want.Digest() {
		panic(fmt.Sprintf("experiments: fig5 snapshot smoke: restore diverged at t=%v:\noriginal %s\nrestored %s",
			until, want.Digest(), got.Digest()))
	}
}
