package sim

import (
	"fmt"
	"sort"
)

// Snapshot/restore support (DESIGN.md §3j). The engine's pending-event
// structure is serialized as a flat (at, seq) ordered list; restore clears
// the live structure (Reset) and re-files each record with its original
// sequence number (RestoreEvent), so the restored dispatch order is the
// exact total order the original run would have produced. Only quiescent
// barriers are snapshot points: RunUntil has returned and no event is
// mid-dispatch.

// PendingEvent is one serializable pending event as the engine stores
// it: its firing time, its schedule-time sequence number (the FIFO
// tie-break) and its callback. A closure event has a nil AFn and its
// func() in Arg.
type PendingEvent struct {
	At  Time
	Seq uint64
	AFn func(any)
	Arg any
}

// EventKind is one pre-bound callback a snapshot can carry, declared by
// the code that arms it. Save names a pending event's argument by record
// fields (false when arg is another instance's: instances share Fn's
// code); Load resolves them back, or says why they name nothing Fn can
// fire on. Where arg holds such an event, Pending reports that it holds
// one and Adopt makes a restored event, due at at, the one it holds;
// restore refuses a second. Both are nil when any number may be pending.
type EventKind struct {
	Name    string
	Fn      func(any)
	Save    func(arg any) (EventFields, bool)
	Load    func(EventFields) (any, error)
	Pending func(arg any) bool
	Adopt   func(arg any, at Time, ev Event)
}

// EventFields are the record fields that name a pending event's
// argument: a CPU, TID or enclave id in Ref, or a tuple in Args.
type EventFields struct {
	Ref  int64
	Args []int64
}

// Pending returns every live pending event (lane, wheel and spill) in
// (at, seq) dispatch order.
func (e *Engine) Pending() []PendingEvent {
	var evs []PendingEvent
	add := func(ev *event) {
		evs = append(evs, PendingEvent{At: ev.at, Seq: ev.seq, AFn: ev.afn, Arg: ev.arg})
	}
	e.lane.each(add)
	for i := range e.buckets {
		e.buckets[i].each(add)
	}
	for _, ev := range e.spill {
		add(ev)
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		return evs[i].Seq < evs[j].Seq
	})
	return evs
}

// Reset drops every live event (recycling storage and invalidating
// outstanding handles), empties the lane and the wheel, and primes the
// engine's clock, sequence counter and diagnostic counters from a
// snapshot. Restored events are re-filed afterwards with RestoreEvent.
func (e *Engine) Reset(now Time, seq uint64, executed uint64, maxQueue int) {
	e.dropList(&e.lane)
	e.nlane = 0
	for i := range e.buckets {
		e.dropList(&e.buckets[i])
	}
	e.occ = [len(e.occ)]uint64{}
	e.nbucket = 0
	for i, ev := range e.spill {
		e.recycle(ev)
		e.spill[i] = nil
	}
	e.spill = e.spill[:0]
	e.minEv = nil
	e.now = now
	e.base = (now >> bucketShift) << bucketShift
	e.seq = seq
	e.Executed = executed
	e.MaxQueue = maxQueue
}

// dropList recycles every event on l and empties it.
func (e *Engine) dropList(l *evList) {
	l.each(func(ev *event) {
		ev.prev, ev.next = nil, nil
		e.recycle(ev)
	})
	l.head = nil
}

// Seq returns the engine's next-sequence counter (snapshot save).
func (e *Engine) Seq() uint64 { return e.seq }

// RestoreEvent re-files a serialized event with its original (at, seq)
// pair, bypassing the monotonic sequence draw. The caller must have Reset
// the engine with the snapshot's sequence counter so that later schedule
// calls draw sequence numbers above every restored event. An event
// before the engine's clock is an error: it could never fire in order.
// So is a seq at or above the restored counter: a later schedule could
// draw the same seq. A restored event due at the clock goes to the
// wheel, never the now-lane: its seq is below every later lane event's,
// which is the order the wheel-before-lane rule in step realizes. A
// closure event is restored as Pending returns it: a nil afn and the
// func() as arg.
func (e *Engine) RestoreEvent(at Time, seq uint64, afn func(any), arg any) (Event, error) {
	if at < e.now {
		return Event{}, fmt.Errorf("sim: restoring event at %v before now %v", at, e.now)
	}
	if seq >= e.seq {
		return Event{}, fmt.Errorf("sim: restoring event seq %d at or above the counter %d", seq, e.seq)
	}
	ev := e.alloc()
	ev.at, ev.afn, ev.arg, ev.seq = at, afn, arg, seq
	e.push(ev)
	return Event{e: ev, gen: ev.gen}, nil
}
