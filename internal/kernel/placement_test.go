package kernel_test

import (
	"errors"
	"testing"

	"ghost"
	"ghost/internal/check"
	"ghost/internal/kernel"
	wl "ghost/internal/workload"
)

// TestCFSPlacementMatchesFullScan: every idle steal and every CFS and
// MicroQuanta wake placement, answered from the kernel's idle, pending
// and queued masks, equals what the per-CPU scans they replaced answer
// in the same state. It audits the Rome Search workload under CFS (as
// cmd/ghost-perf's search-cfs builds it) and check seeds 1-100, which
// cover every policy including cfs and microquanta on 2-8 CPU machines.
func TestCFSPlacementMatchesFullScan(t *testing.T) {
	stop := kernel.AuditPlacement(t)
	m := ghost.NewMachine(ghost.AMDRome())
	cfg := wl.DefaultSearchConfig()
	cfg.Seed = 1
	wl.NewSearch(m.Kernel(), cfg,
		func(name string, aff ghost.CPUMask, body ghost.ThreadFunc) *ghost.Thread {
			return m.Spawn(ghost.ThreadOpts{Name: name, Affinity: aff, Class: ghost.CFS}, body)
		},
		func(name string, body ghost.ThreadFunc) *ghost.Thread {
			return m.Spawn(ghost.ThreadOpts{Name: name}, body)
		})
	m.Run(30 * ghost.Millisecond)
	m.Shutdown()
	rome := stop()
	if rome.Steals == 0 || rome.CFSCPUs == 0 {
		t.Fatalf("search-cfs audited %+v: no steals or no CFS placements", rome)
	}

	stop = kernel.AuditPlacement(t)
	for seed := uint64(1); seed <= 100; seed++ {
		check.Generate(seed).Run()
	}
	seeds := stop()
	if seeds.Steals == 0 || seeds.CFSCPUs == 0 || seeds.MQCPUs == 0 {
		t.Fatalf("check seeds 1-100 audited %+v: a decision kind never ran", seeds)
	}
	t.Logf("search-cfs: %+v; check seeds 1-100: %+v", rome, seeds)
}

// TestRestoreRebuildsPlacementMasks restores a mid-run Rome image whose
// CFS runqueues hold threads and whose CPU 0 has a resched pending. The
// restored kernel's idle, pending and queued masks must equal the sets
// they mirror and the masks the image was taken from, and the restored
// machine must run on to the uninterrupted run's digest.
func TestRestoreRebuildsPlacementMasks(t *testing.T) {
	const at, horizon = 2 * ghost.Millisecond, 4 * ghost.Millisecond
	// Twelve CFS workers share three SMT cores (CPUs 0-2 and their
	// siblings 128-130) under 300k req/s of 20 µs requests, more than the
	// six CPUs serve, so runqueues fill.
	build := func() *ghost.Machine {
		m := ghost.NewMachine(ghost.AMDRome())
		pool := m.NewWorkerPool(12, &ghost.LatencyRecorder{}, func(name string, body ghost.ThreadFunc) *ghost.Thread {
			return m.Spawn(ghost.ThreadOpts{Name: name, Affinity: ghost.MaskOf(0, 1, 2, 128, 129, 130)}, body)
		})
		m.AddSnapshotComponent("pool", pool)
		src := m.NewPoissonSource(ghost.NewRand(5), 300_000, ghost.ExponentialService(20*ghost.Microsecond),
			func(r *ghost.Request) { pool.Submit(r) })
		m.AddSnapshotComponent("src", src)
		m.Run(at)
		m.Kernel().Resched(0) // a resched that lands at the barrier
		return m
	}
	digest := func(m *ghost.Machine) string {
		s, err := m.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		return s.Digest()
	}

	ref := build()
	ref.RunUntil(horizon)
	want := digest(ref)
	ref.Shutdown()

	m := build()
	idle, pending, queued := m.Kernel().IdleMask(), kernel.PendingMask(m.Kernel()), kernel.QueuedMask(m.CFS)
	if queued.Empty() || !pending.Has(0) {
		t.Fatalf("the image needs queued CFS threads and a pending resched: queued %v, pending %v", queued, pending)
	}
	s, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	m.Shutdown()
	restored, err := ghost.Restore(s, ghost.WithRestoredComponent("src", func(m *ghost.Machine) (ghost.SnapshotComponent, error) {
		pool, ok := m.SnapshotComponent("pool").(*ghost.WorkerPool)
		if !ok {
			return nil, errors.New("pool not restored before src")
		}
		return m.NewPoissonShell(func(r *ghost.Request) { pool.Submit(r) }), nil
	}))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer restored.Shutdown()
	k := restored.Kernel()
	if err := kernel.CheckMasks(k); err != nil {
		t.Fatalf("restored masks: %v", err)
	}
	if k.IdleMask() != idle || kernel.PendingMask(k) != pending || kernel.QueuedMask(restored.CFS) != queued {
		t.Fatalf("restore changed the masks: idle %v pending %v queued %v, were %v, %v and %v",
			k.IdleMask(), kernel.PendingMask(k), kernel.QueuedMask(restored.CFS), idle, pending, queued)
	}
	restored.RunUntil(horizon)
	if got := digest(restored); got != want {
		t.Fatalf("restored run digest %s, uninterrupted %s", got, want)
	}
}
