// Package policies implements the scheduling policies evaluated in the
// ghOSt paper as userspace agents on top of internal/agentsdk:
//
//   - CentralFIFO: the centralized FIFO/round-robin policy of Fig 5 and
//     the Snap policy of §4.3 (priority bands).
//   - Shinjuku / ShinjukuShenango: the preemptive µs-scale policies of
//     §4.2.
//   - Search: the NUMA/CCX-aware least-runtime policy of §4.4.
//   - CoreSched: the secure VM core-scheduling policy of §4.5.
//   - PerCPUFIFO: the per-CPU model of Fig 3.
package policies

import (
	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// TState tracks what a policy believes about one managed thread. Policies
// own a Tracker and update it from kernel messages; it is the userspace
// mirror of thread state that the paper's agents maintain.
type TState struct {
	Thread *kernel.Thread
	// Runnable: the thread awaits a scheduling decision.
	Runnable bool
	// Running: the policy committed it to a CPU and has not seen it
	// leave.
	Running bool
	// CPU is where the policy last placed it.
	CPU int
	// LastStart is when the policy last scheduled it (for timeslices).
	LastStart sim.Time
	// Runtime is the policy-visible accumulated runtime.
	Runtime sim.Duration
	// Enqueued marks presence in the policy's own runqueue, preventing
	// double-queueing on duplicate wake messages.
	Enqueued bool

	// heapIdx is the thread's 1-based slot in the owning policy's
	// indexed heap (Search's runtime heap), 0 when it is not in one;
	// heapSeq is its FIFO tie-break there. Keeping them on the thread
	// lets the heap move and remove threads with no per-push entry.
	heapIdx int
	heapSeq uint64
}

// Tracker converts the message stream into per-thread state and hands
// lifecycle events to the policy via callbacks.
type Tracker struct {
	Threads map[kernel.TID]*TState

	// OnRunnable is invoked when a thread needs (re)scheduling: wakeup,
	// preemption, yield, or creation-in-runnable-state. preempted is
	// true for THREAD_PREEMPTED.
	OnRunnable func(ts *TState, m ghostcore.Message)
	// OnRemoved is invoked when a thread blocks or dies.
	OnRemoved func(ts *TState, m ghostcore.Message)
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{Threads: make(map[kernel.TID]*TState)}
}

// Rebuild seeds the tracker from an enclave's current threads (used on
// agent upgrade, §3.4).
func (tr *Tracker) Rebuild(ctx *agentsdk.Context) {
	for _, t := range ctx.Enclave.Threads() {
		ts := tr.get(t)
		if sw := ctx.Enclave.StatusWord(t); sw != nil && sw.Runnable {
			ts.Runnable = true
			if tr.OnRunnable != nil {
				tr.OnRunnable(ts, ghostcore.Message{Type: ghostcore.MsgThreadWakeup, TID: t.TID()})
			}
		}
	}
}

func (tr *Tracker) get(t *kernel.Thread) *TState {
	ts, ok := tr.Threads[t.TID()]
	if !ok {
		ts = &TState{Thread: t, CPU: -1}
		tr.Threads[t.TID()] = ts
	}
	return ts
}

// Get returns the state for tid, nil if unknown.
func (tr *Tracker) Get(tid kernel.TID) *TState { return tr.Threads[tid] }

// HandleMessage folds one kernel message into the tracker.
func (tr *Tracker) HandleMessage(ctx *agentsdk.Context, m ghostcore.Message) {
	if m.Type == ghostcore.MsgTimerTick {
		return
	}
	t := ctx.Thread(m.TID)
	switch m.Type {
	case ghostcore.MsgThreadCreated:
		if t == nil {
			return
		}
		ts := tr.get(t)
		if m.Runnable && !ts.Runnable {
			ts.Runnable = true
			if tr.OnRunnable != nil {
				tr.OnRunnable(ts, m)
			}
		}
	case ghostcore.MsgThreadWakeup:
		if t == nil {
			return
		}
		ts := tr.get(t)
		ts.Running = false
		if !ts.Runnable {
			ts.Runnable = true
			if tr.OnRunnable != nil {
				tr.OnRunnable(ts, m)
			}
		}
	case ghostcore.MsgThreadPreempted, ghostcore.MsgThreadYield:
		if t == nil {
			return
		}
		ts := tr.get(t)
		if ts.Running {
			ts.Runtime += ctx.Now() - ts.LastStart
		}
		ts.Running = false
		ts.Runnable = true
		if tr.OnRunnable != nil {
			tr.OnRunnable(ts, m)
		}
	case ghostcore.MsgThreadBlocked:
		ts := tr.Threads[m.TID]
		if ts == nil {
			return
		}
		if ts.Running {
			ts.Runtime += ctx.Now() - ts.LastStart
		}
		ts.Running = false
		ts.Runnable = false
		if tr.OnRemoved != nil {
			tr.OnRemoved(ts, m)
		}
	case ghostcore.MsgThreadDead:
		ts := tr.Threads[m.TID]
		if ts == nil {
			return
		}
		ts.Running = false
		ts.Runnable = false
		if tr.OnRemoved != nil {
			tr.OnRemoved(ts, m)
		}
		delete(tr.Threads, m.TID)
	case ghostcore.MsgThreadAffinity:
		// Mask is read directly from the thread when scheduling.
	}
}

// MarkScheduled records a commit the policy just made.
func (tr *Tracker) MarkScheduled(ts *TState, cpu int, now sim.Time) {
	ts.Runnable = false
	ts.Enqueued = false
	ts.Running = true
	ts.CPU = cpu
	ts.LastStart = now
}

// MarkFailed reverts MarkScheduled after a failed transaction and
// reports whether the thread is still runnable, so the policy queues it
// again; when it is not, Runnable is cleared too.
func (tr *Tracker) MarkFailed(ts *TState) bool {
	ts.Running = false
	ts.CPU = -1
	ts.Runnable = ts.Thread.State() == kernel.StateRunnable
	return ts.Runnable
}

// runq is a FIFO of runnable threads, kept in step with their Enqueued
// flags: push sets the flag, and remove and popFor clear it.
type runq []*TState

// push appends ts unless it is already queued.
func (q *runq) push(ts *TState) {
	if ts.Enqueued {
		return
	}
	ts.Enqueued = true
	*q = append(*q, ts)
}

// remove takes ts out of q. A thread that is not queued is left alone.
func (q *runq) remove(ts *TState) {
	if !ts.Enqueued {
		return
	}
	ts.Enqueued = false
	for i, e := range *q {
		if e == ts {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}

// popFor removes and returns the first queued thread that is runnable
// and whose affinity admits cpu, nil if none.
func (q *runq) popFor(cpu hw.CPUID) *TState {
	for i, ts := range *q {
		if ts.Thread.State() == kernel.StateRunnable && ts.Thread.Affinity().Has(cpu) {
			*q = append((*q)[:i], (*q)[i+1:]...)
			ts.Enqueued = false
			return ts
		}
	}
	return nil
}

// placements records which tracked thread a centralized policy put on
// each CPU. Every occupant satisfies slots[c].ts.CPU == c: a slot is only
// filled together with MarkScheduled for that same CPU, and an
// occupant's CPU only changes after it has left its slot. SnapshotLoad
// rejects states that break this.
//
// Besides the CPU-indexed slots the table keeps two indexes, written
// only by put and clear:
//   - occ, the occupied CPUs, so victim searches walk occupancy bits in
//     CPU order;
//   - a ring of the occupied slots in placement order, linked through
//     the slots' prev/next and headed by the oldest. A placement stamps
//     LastStart = now and the clock never goes backwards, so the ring is
//     sorted by start time: the next slice expiry is the head's, and the
//     expired slots are a prefix of the ring. Restore relinks it in
//     (LastStart, cpu) order, and LoadTrackerRecs rejects a LastStart after
//     the restored clock.
type placements struct {
	slots []slot
	head  int32 // CPU of the oldest placement, -1 when the table is empty
	occ   kernel.Mask
}

// slot is one CPU's entry: its occupant (nil: none), the occupant's
// LastStart when it was placed, and its ring links (CPU ids; int32
// keeps the entry at three words).
type slot struct {
	ts         *TState
	start      sim.Time
	prev, next int32
}

func newPlacements(ctx *agentsdk.Context) placements {
	return placements{slots: make([]slot, ctx.Topology().NumCPUs()), head: -1}
}

// at returns cpu's occupant, nil if none.
func (pl *placements) at(cpu hw.CPUID) *TState { return pl.slots[cpu].ts }

// put makes ts, just stamped by MarkScheduled, the occupant of cpu,
// replacing any previous one. It joins the ring at the tail: its
// LastStart is now, so no occupant started later.
func (pl *placements) put(cpu hw.CPUID, ts *TState) {
	c := int32(cpu)
	if pl.slots[c].ts != nil {
		pl.unlink(c)
	}
	s := &pl.slots[c]
	s.ts, s.start = ts, ts.LastStart
	if pl.head < 0 {
		s.prev, s.next, pl.head = c, c, c
	} else {
		tail := pl.slots[pl.head].prev
		s.prev, s.next = tail, pl.head
		pl.slots[tail].next = c
		pl.slots[pl.head].prev = c
	}
	pl.occ.SetTo(cpu, true)
}

// clear empties cpu's slot, whoever holds it.
func (pl *placements) clear(cpu hw.CPUID) {
	if pl.slots[cpu].ts != nil {
		pl.unlink(int32(cpu))
	}
}

// release empties ts's slot if ts still holds it.
func (pl *placements) release(ts *TState) {
	if ts.CPU >= 0 && pl.slots[ts.CPU].ts == ts {
		pl.unlink(int32(ts.CPU))
	}
}

// unlink takes occupied slot c out of the ring and empties it.
func (pl *placements) unlink(c int32) {
	s := &pl.slots[c]
	if s.next == c {
		pl.head = -1
	} else {
		pl.slots[s.prev].next = s.next
		pl.slots[s.next].prev = s.prev
		if pl.head == c {
			pl.head = s.next
		}
	}
	s.ts = nil
	pl.occ.SetTo(hw.CPUID(c), false)
}

// nextExpiry returns the time until the oldest placement has run for
// slice, at least 1 µs, and 0 if the table is empty.
func (pl *placements) nextExpiry(now sim.Time, slice sim.Duration) sim.Duration {
	if pl.head < 0 {
		return 0
	}
	d := pl.slots[pl.head].start + slice - now
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	return d
}

// expired returns the CPUs whose occupant has run for at least slice:
// the ring's prefix up to the first placement that has not.
func (pl *placements) expired(now sim.Time, slice sim.Duration) kernel.Mask {
	var m kernel.Mask
	for c := pl.head; c >= 0 && now-pl.slots[c].start >= slice; {
		m.SetTo(hw.CPUID(c), true)
		if c = pl.slots[c].next; c == pl.head {
			break
		}
	}
	return m
}
