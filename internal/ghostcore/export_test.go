package ghostcore

import (
	"ghost/internal/hw"
	"ghost/internal/kernel"
)

// Pop removes and returns the oldest message, so ring tests can consume
// part of a queue and make head and tail wrap at offsets Drain never
// leaves.
func (q *Queue) Pop() (Message, bool) {
	if q.tail == q.head {
		return Message{}, false
	}
	m := q.buf[q.head&uint64(len(q.buf)-1)]
	q.head++
	q.uncount(m)
	if g := q.enc.g; len(g.observers) > 0 {
		g.obsMsgDrained(q.enc, m)
	}
	return m, true
}

// DebugSlots returns cpu's latched slot and in-flight commit as stored,
// without LatchedFor's stale-entry clearing, so invariant tests can
// recompute Held from them.
func (e *Enclave) DebugSlots(cpu hw.CPUID) (slot, inflight *kernel.Thread) {
	if !e.cpus.Has(cpu) {
		return nil, nil
	}
	return e.g.slots[cpu], e.g.inflight[cpu]
}
