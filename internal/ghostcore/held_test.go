package ghostcore_test

import (
	"errors"
	"testing"

	"ghost"
)

// heldChecker asserts, before every engine event, that the enclave's
// Held mask equals the mask recomputed from LatchedFor, destroyed or
// not, and that a thread reports itself latched exactly when one CPU's
// latch holds it. It chains any OnDispatch hook already installed
// (the metrics tracer's) and only reads state.
type heldChecker struct {
	t        *testing.T
	enc      *ghost.Enclave
	checks   int
	nonEmpty int // checks that saw at least one held CPU
	failures int
}

func (h *heldChecker) attach(m *ghost.Machine) {
	eng := m.Kernel().Engine()
	prev := eng.OnDispatch
	eng.OnDispatch = func(now ghost.Time, queued int) {
		h.check(now)
		if prev != nil {
			prev(now, queued)
		}
	}
}

func (h *heldChecker) check(now ghost.Time) {
	h.checks++
	var want ghost.CPUMask
	latchedOn := map[*ghost.Thread]ghost.CPUID{}
	h.enc.CPUs().ForEach(func(cpu ghost.CPUID) bool {
		if t := h.enc.LatchedFor(cpu); t != nil {
			want.Set(cpu)
			if prev, twice := latchedOn[t]; twice {
				h.failf("t=%v enclave %d: thread %d latched on cpu%d and cpu%d", now, h.enc.ID(), t.TID(), prev, cpu)
			}
			latchedOn[t] = cpu
		}
		return true
	})
	got := h.enc.Held()
	if got != want {
		h.failf("t=%v enclave %d: Held = %v, LatchedFor holds %v", now, h.enc.ID(), got, want)
	}
	for _, t := range h.enc.Threads() {
		_, latched := h.enc.DebugThreadState(t)
		if _, held := latchedOn[t]; latched != held {
			h.failf("t=%v enclave %d: thread %d reports latched=%v, a latch record holds it: %v", now, h.enc.ID(), t.TID(), latched, held)
		}
	}
	if !got.Empty() {
		h.nonEmpty++
	}
}

// failf reports the first five failures.
func (h *heldChecker) failf(format string, args ...any) {
	if h.failures < 5 {
		h.t.Errorf(format, args...)
		h.failures++
	}
}

// TestHeldMaskExact drives the held-CPU mask through lost IPIs, failed
// commits, an agent crash with CFS fallback and a snapshot/restore round
// trip, checking it against the latch records before every event.
func TestHeldMaskExact(t *testing.T) {
	t.Run("faults", func(t *testing.T) {
		// IPIs are still being lost when the agent crashes, so the
		// destroy path has in-flight commits to drop.
		plan := ghost.NewFaultPlan(3).
			LoseIPIs(ghost.Time(ghost.Millisecond), 6*ghost.Millisecond, 0.5).
			FailTxns(ghost.Time(2*ghost.Millisecond), ghost.Millisecond, 0.5).
			Crash(ghost.Time(6 * ghost.Millisecond))
		m := ghost.NewMachine(ghost.XeonE5(), ghost.WithFaults(plan))
		defer m.Shutdown()
		enc := m.NewEnclave(ghost.MaskOf(0, 1, 2, 3, 4, 5, 6, 7))
		m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())
		for i := 0; i < 12; i++ {
			m.Spawn(ghost.ThreadOpts{Name: "w", Class: ghost.Ghost(enc)}, func(tc *ghost.Task) {
				for {
					tc.Run(15 * ghost.Microsecond)
					tc.Sleep(10 * ghost.Microsecond)
				}
			})
		}
		h := &heldChecker{t: t, enc: enc}
		h.attach(m)
		m.Run(8 * ghost.Millisecond)
		if !errors.Is(enc.DestroyCause(), ghost.ErrAgentCrash) {
			t.Fatalf("enclave destroy cause = %v, want an agent crash", enc.DestroyCause())
		}
		f := m.Metrics().Faults
		if f["ipiloss"] == 0 || f["txnfail"] == 0 || f["crash"] == 0 {
			t.Fatalf("faults fired = %v, want ipiloss, txnfail and crash", f)
		}
		if h.nonEmpty == 0 {
			t.Fatalf("no held CPU in %d checks: the run never committed remotely", h.checks)
		}
	})

	t.Run("restore", func(t *testing.T) {
		m := buildServing()
		defer m.Shutdown()
		h := &heldChecker{t: t, enc: m.Ghost.Enclaves()[0]}
		h.attach(m)
		// Snapshot at the first microsecond boundary after 2 ms with a
		// commit outstanding, so the restore has a held CPU to rebuild.
		m.Run(2 * ghost.Millisecond)
		for i := 0; i < 1000 && h.enc.Held().Empty(); i++ {
			m.Run(ghost.Microsecond)
		}
		held := h.enc.Held()
		if held.Empty() {
			t.Fatal("no commit outstanding at any snapshot point")
		}
		s, err := m.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		r, err := ghost.Restore(s, servingRestoreOpts()...)
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		defer r.Shutdown()
		h.enc = r.Ghost.Enclaves()[0]
		h.check(r.Now())
		if got := h.enc.Held(); got != held {
			t.Fatalf("restored Held = %v, snapshot's was %v", got, held)
		}
		h.attach(r)
		r.Run(2 * ghost.Millisecond)
		if h.nonEmpty == 0 {
			t.Fatalf("no held CPU in %d checks: the run never committed remotely", h.checks)
		}
	})
}

// buildServing is a small serving machine: a global FIFO agent on four
// XeonE5 CPUs, three pool workers fed by a Poisson source, and a
// spinner, with the pool and source registered for snapshots.
func buildServing() *ghost.Machine {
	m := ghost.NewMachine(ghost.XeonE5())
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 2, 3))
	m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())
	pool := m.NewWorkerPool(3, &ghost.LatencyRecorder{}, func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name, Class: ghost.Ghost(enc)}, body)
	})
	m.AddSnapshotComponent("pool", pool)
	src := m.NewPoissonSource(ghost.NewRand(7), 40_000, ghost.ExponentialService(20*ghost.Microsecond),
		func(r *ghost.Request) { pool.Submit(r) })
	m.AddSnapshotComponent("src", src)
	m.SpawnSpinner(ghost.ThreadOpts{Name: "spin", Class: ghost.Ghost(enc)}, 15*ghost.Microsecond)
	return m
}

// servingRestoreOpts re-wires the Poisson source's sink, the one
// closure a snapshot cannot carry, to the restored pool.
func servingRestoreOpts() []ghost.MachineOption {
	return []ghost.MachineOption{
		ghost.WithRestoredComponent("src", func(m *ghost.Machine) (ghost.SnapshotComponent, error) {
			pool, ok := m.SnapshotComponent("pool").(*ghost.WorkerPool)
			if !ok {
				return nil, errors.New("pool not restored before src")
			}
			return m.NewPoissonShell(func(r *ghost.Request) { pool.Submit(r) }), nil
		}),
	}
}
