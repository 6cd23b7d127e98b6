// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the ghOSt reproduction runs on virtual time: the engine maintains
// a pending-event structure keyed by (time, sequence) and executes events
// in that total order. Because the engine is single-threaded and every
// source of randomness is a seeded generator, a simulation run is
// bit-reproducible. Time is measured in integer nanoseconds of simulated
// time; wall-clock effects such as Go garbage collection cannot perturb
// simulated latencies.
//
// The pending-event structure has three tiers, shaped to the simulator's
// event mix (see DESIGN.md §3i). Events due at the current instant go to
// a FIFO now-lane and never enter the wheel. Events within the ~1 ms near
// horizon land in fixed-width timing-wheel buckets indexed directly from
// their timestamp, each an (at, seq)-sorted intrusive list, so a fire or
// a cancel is an O(1) unlink. Far events overflow to a spill heap and
// migrate into the wheel as the clock approaches them. Dispatch order is
// exactly the (at, seq) total order a single binary heap would produce —
// the tiers only change *where* an event waits, never *when* it fires
// relative to its peers — which the differential test against a
// reference heap (refheap_test.go) pins.
//
// The scheduling hot path is allocation-free: fired and cancelled events
// are recycled through a per-engine free list, and the AtCall/AfterCall
// variants take a pre-bound callback plus argument so callers avoid the
// per-event closure a plain func() would force.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = Time

// Common durations, mirroring time.Duration conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// String renders a Time using engineering units for readability in traces.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Timing-wheel geometry. Buckets are 2^bucketShift ns wide and the wheel
// holds numBuckets of them, so the near horizon spans wheelSpan ns
// (4096 × 256 ns ≈ 1.05 ms) ahead of the wheel base. The span is
// calibrated to the simulator's event mix: context-switch and message
// costs (0.1–5 µs), scheduling quanta (5–250 µs), agent wakeups, the
// kernel's 1 ms tick and most of Search's 0.1–2 ms request completions
// land inside the wheel, so the cancels that preemption makes against
// those completions are list unlinks. Only the longer timers (watchdogs,
// deadlines) and completions take the spill path, and each migrates into
// the wheel at most once. A 524 µs span spills every tick and many of
// Search's completions, and measured slower.
//
// The width is calibrated to a 256-CPU machine: its context-switch ends
// and transaction installs land 0.1–2 µs ahead, and with 1 µs buckets
// 37% of search-ghost's wheel inserts found a later event already in
// their bucket and walked back past it. 256 ns buckets keep those
// near-term events apart (search-cfs ran 2-4% faster). A bucket is one
// pointer, so the wheel costs 32 KB per engine; narrower buckets ran
// faster still but pushed shinjuku-rocksdb's peak heap past its bound
// (DESIGN.md §3i). Geometry affects performance only — dispatch order is
// the (at, seq) total order regardless.
const (
	bucketShift = 8
	bucketWidth = Time(1) << bucketShift
	numBuckets  = 4096
	bucketMask  = numBuckets - 1
	wheelSpan   = bucketWidth * numBuckets
)

// Where a queued event waits. Values >= 0 are wheel bucket indices.
const (
	slotSpill = -1 // the spill heap, at position idx
	slotLane  = -2 // the now-lane
)

// event is the pooled storage behind a scheduled callback: afn(arg), or,
// when afn is nil, arg is the niladic func() that At and After take.
// Pre-bound afn callbacks let callers avoid a per-event closure
// allocation.
//
// An event is queued exactly while its gen matches its handle's: every
// path that takes an event out of the engine (fire, cancel, Reset)
// recycles it, and recycling bumps gen.
type event struct {
	at   Time
	seq  uint64 // tie-break for FIFO ordering of same-time events
	gen  uint64 // bumped on every recycle; validates Event handles
	prev *event // neighbours in its bucket list or the now-lane
	next *event
	idx  int32 // position in the spill heap when slot == slotSpill
	slot int32 // wheel bucket index, slotSpill or slotLane

	afn func(any)
	arg any

	eng *Engine
}

// Event is a generational handle to a scheduled callback.
//
// Aliasing rule: the engine recycles event storage once an event fires or
// is cancelled, so a handle goes stale at that moment — the same storage
// may already describe a different, live event. Handles carry a generation
// number so stale use is safe: Cancel and Move on a stale handle are
// no-ops (they never touch the recycled successor) and Pending reports
// false. Move keeps the generation, so a moved handle stays valid.
// The zero Event is a valid stale handle.
type Event struct {
	e   *event
	gen uint64
}

// Cancel prevents a pending event from firing, removing it from the queue
// immediately. Cancelling an event that already fired (or was already
// cancelled) is a no-op, even if its storage now backs a newer event.
func (h Event) Cancel() {
	ev := h.e
	if ev == nil || ev.gen != h.gen {
		return
	}
	ev.eng.remove(ev)
	ev.eng.recycle(ev)
}

// Move re-files a pending event to fire at at with a fresh sequence
// number, so it orders exactly as Cancel followed by AtCall with the same
// callback would. Unlike that pair it keeps the event's storage and
// generation: the handle stays valid. Moving a stale handle (fired or
// cancelled) does nothing, never touches the recycled successor, and
// returns false. Moving into the past panics, as scheduling there does.
func (h Event) Move(at Time) bool {
	ev := h.e
	if ev == nil || ev.gen != h.gen {
		return false
	}
	e := ev.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: moving event to %v before now %v", at, e.now))
	}
	e.remove(ev)
	ev.at, ev.seq = at, e.seq
	e.seq++
	// Filed as schedule files it. Neither inlines, so a shared helper
	// would cost every scheduled event a call.
	if at == e.now {
		ev.slot = slotLane
		e.lane.insert(ev)
		e.nlane++
	} else {
		e.push(ev)
	}
	return true
}

// Pending reports whether the event is still queued (in the now-lane, the
// wheel or the spill heap).
func (h Event) Pending() bool {
	return h.e != nil && h.e.gen == h.gen
}

// Engine is the discrete-event scheduler: one per simulated machine.
// Construct with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// Now-lane: the events scheduled with at == now, in seq order. They
	// skip the wheel. A wheel event due now was scheduled before the
	// clock reached now, so its seq is below every lane event's and step
	// fires it first; the lane drains before the clock advances.
	lane  evList
	nlane int

	// Timing wheel: buckets[i] is the (at, seq)-sorted list of events
	// with at in the bucket's fixed-width window; occ tracks non-empty
	// buckets for O(words) next-bucket scans. base is the wheel window
	// start, the clock's bucket boundary (advance keeps it there);
	// spill is the (at, seq) min-heap of events at or beyond base +
	// wheelSpan. minEv caches the minimum over the wheel and the spill
	// (never a lane event); nil means recompute.
	base    Time
	buckets [numBuckets]evList
	occ     [numBuckets / 64]uint64
	nbucket int // live events across all buckets
	spill   []*event
	minEv   *event

	free []*event // recycled event storage

	// Executed counts events that have fired, for diagnostics.
	Executed uint64

	// MaxQueue is the high-water mark of the pending-event count,
	// sampled at each dispatch. Cancelled events are removed eagerly and
	// never counted.
	MaxQueue int

	// OnDispatch, when non-nil, observes every event dispatch with the
	// current time and the number of events still queued. The tracing
	// subsystem uses it to meter engine activity; it must not schedule
	// or cancel events.
	OnDispatch func(now Time, queued int)
}

// NewEngine returns an engine with an empty event queue at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// alloc pops recycled event storage, or grows the pool.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{eng: e}
}

// schedule queues a pooled event and returns its handle.
func (e *Engine) schedule(at Time, afn func(any), arg any) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at, ev.afn, ev.arg, ev.seq = at, afn, arg, e.seq
	e.seq++
	if at == e.now {
		ev.slot = slotLane
		e.lane.insert(ev)
		e.nlane++
	} else {
		e.push(ev)
	}
	return Event{e: ev, gen: ev.gen}
}

// recycle invalidates outstanding handles to ev and returns its storage to
// the free list. ev must not be queued.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.afn, ev.arg = nil, nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time at. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(at Time, fn func()) Event {
	return e.schedule(at, nil, fn)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.schedule(e.now+d, nil, fn)
}

// AtCall schedules fn(arg) at absolute time at. With a callback bound
// once and reused across calls (a stored method value), the schedule path
// allocates nothing — the high-frequency sites (reschedule passes, run
// completions, timer ticks, transaction installs) use this form.
func (e *Engine) AtCall(at Time, fn func(any), arg any) Event {
	return e.schedule(at, fn, arg)
}

// AfterCall schedules fn(arg) to run d nanoseconds from now. See AtCall.
func (e *Engine) AfterCall(d Duration, fn func(any), arg any) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.schedule(e.now+d, fn, arg)
}

// Queued returns the number of pending (live) events.
func (e *Engine) Queued() int { return e.nlane + e.nbucket + len(e.spill) }

// step fires the next event. Returns false when the queue is exhausted or
// only events beyond limit remain.
func (e *Engine) step(limit Time) bool {
	next := e.peek()
	if e.lane.head != nil && (next == nil || next.at != e.now) {
		// A wheel event due now outranks the lane (smaller seq);
		// otherwise the lane head, due now, is the minimum.
		next = e.lane.head
	}
	if next == nil || next.at > limit {
		return false
	}
	if next.at < e.now {
		panic("sim: event wheel returned time in the past")
	}
	e.remove(next)
	if next.at != e.now {
		e.advance(next.at)
	}
	e.Executed++
	// The queued figure sampled here (and handed to OnDispatch) is the
	// number of live events still pending after this pop. OnDispatch
	// runs before the recycle, so it sees the state the previous event
	// left: handles to this event still report Pending.
	queued := e.Queued()
	if queued > e.MaxQueue {
		e.MaxQueue = queued
	}
	if e.OnDispatch != nil {
		e.OnDispatch(e.now, queued)
	}
	// Recycle before the callback: it may immediately schedule a new
	// event into this storage; outstanding handles to the fired event
	// are invalidated by the generation bump either way.
	afn, arg := next.afn, next.arg
	e.recycle(next)
	if afn != nil {
		afn(arg)
	} else {
		arg.(func())()
	}
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.step(MaxTime) {
	}
}

// RunUntil executes events with At <= deadline, then advances the clock to
// exactly deadline. Events scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for e.step(deadline) {
	}
	if e.now < deadline {
		e.advance(deadline)
	}
}

// RunFor advances the simulation by d nanoseconds.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now + d) }

// --- now-lane, timing wheel and spill ---------------------------------
//
// Invariants. All live events have at >= e.now (dispatch fires the global
// minimum and schedule rejects the past), and base is the clock's bucket
// boundary at all times (every clock write goes through advance), so
// every bucket event's at lies in [base, base+wheelSpan) and every spill
// event's at in [base+wheelSpan, ∞). The bucket index of a time is
// (at >> bucketShift) & bucketMask — independent of base — so advancing
// base never relocates bucket events; it only moves the window, after
// which advance migrates newly covered spill events into their buckets.
// Within one bucket the list is sorted by (at, seq); across buckets the
// scan from base's slot visits strictly increasing time windows; and the
// spill heap only surfaces when every bucket is empty, in which case its
// (at, seq) minimum is the global one. Hence peek yields the exact
// single-heap minimum of the wheel and spill.
//
// The now-lane holds only events with at == e.now, appended in seq
// order. Any wheel or spill event with at == e.now was scheduled while
// the clock was earlier (or restored with a seq below the restored
// counter, which RestoreEvent checks), so its seq is below every lane seq: step fires it before the
// lane head, and the lane head before any later wheel event. Nothing in
// the lane can be passed over by the clock: step only moves the clock to
// the global minimum, which is at now while the lane is non-empty, and
// RunUntil only moves it once step has found nothing due by the deadline,
// which a non-empty lane contradicts. Hence the lane empties before the
// clock advances, and step realizes the exact single-heap total order.

// evList is an intrusive circular doubly linked list of events in
// (at, seq) order: one wheel bucket, or the now-lane. It holds only its
// head (the tail is head.prev), so a bucket costs one pointer.
type evList struct{ head *event }

// insert links ev in (at, seq) order, walking back from the tail past
// every later event. The walk always stops at once for the lane, whose
// events arrive in seq order; in a bucket it is as long as the bucket is
// crowded, which the wheel's narrow buckets keep short.
func (l *evList) insert(ev *event) {
	h := l.head
	if h == nil {
		ev.prev, ev.next = ev, ev
		l.head = ev
		return
	}
	p := h.prev
	for eventLess(ev, p) {
		if p == h { // ev precedes every event: it becomes the head
			l.head = ev
			p = h.prev
			break
		}
		p = p.prev
	}
	ev.prev, ev.next = p, p.next
	p.next.prev = ev
	p.next = ev
}

// unlink removes ev from the list.
func (l *evList) unlink(ev *event) {
	if ev.next == ev {
		l.head = nil
	} else {
		ev.prev.next = ev.next
		ev.next.prev = ev.prev
		if l.head == ev {
			l.head = ev.next
		}
	}
	ev.prev, ev.next = nil, nil
}

// each calls fn on every event of l in order. fn may clear the links of
// the event it is handed, but must not otherwise change the list.
func (l *evList) each(fn func(*event)) {
	h := l.head
	if h == nil {
		return
	}
	for ev, last := h, h.prev; ; {
		next := ev.next
		fn(ev)
		if ev == last {
			return
		}
		ev = next
	}
}

// advance moves the clock forward to t and the wheel base to t's bucket
// boundary, migrating the spill events that the moved window now covers.
func (e *Engine) advance(t Time) {
	e.now = t
	nb := (t >> bucketShift) << bucketShift
	if nb <= e.base {
		return
	}
	e.base = nb
	lim := nb + wheelSpan
	if lim < nb { // clock within wheelSpan of MaxTime: window covers everything
		lim = MaxTime
	}
	for len(e.spill) > 0 && e.spill[0].at < lim {
		ev := heapRemoveAt(&e.spill, 0)
		e.bucketPush(ev)
	}
}

// push files a live event into the wheel or the spill heap.
func (e *Engine) push(ev *event) {
	if ev.at-e.base >= wheelSpan {
		ev.slot = slotSpill
		ev.idx = int32(len(e.spill))
		e.spill = append(e.spill, ev)
		heapUp(e.spill, len(e.spill)-1)
	} else {
		e.bucketPush(ev)
	}
	if e.minEv != nil && eventLess(ev, e.minEv) {
		e.minEv = ev
	}
}

// bucketPush files an event known to lie inside the wheel window.
func (e *Engine) bucketPush(ev *event) {
	slot := int(ev.at>>bucketShift) & bucketMask
	ev.slot = int32(slot)
	b := &e.buckets[slot]
	if b.head == nil {
		e.occ[slot>>6] |= 1 << (slot & 63)
	}
	b.insert(ev)
	e.nbucket++
}

// remove unfiles a live event from the lane, its wheel bucket or the
// spill heap. The caller recycles or re-files it.
func (e *Engine) remove(ev *event) {
	switch ev.slot {
	case slotLane:
		e.lane.unlink(ev)
		e.nlane--
	case slotSpill:
		if ev == e.minEv {
			e.minEv = nil
		}
		heapRemoveAt(&e.spill, int(ev.idx))
	default:
		slot := int(ev.slot)
		b := &e.buckets[slot]
		b.unlink(ev)
		if ev == e.minEv {
			// The minimum heads the first occupied bucket, so the
			// bucket's new head, if any, is the next minimum.
			e.minEv = b.head
		}
		if b.head == nil {
			e.occ[slot>>6] &^= 1 << (slot & 63)
		}
		e.nbucket--
	}
}

// peek returns the wheel or spill event with the least (at, seq), or nil;
// step weighs it against the now-lane. The result is cached until the
// minimum is popped, cancelled or displaced, so repeated peeks are O(1).
func (e *Engine) peek() *event {
	if e.minEv != nil {
		return e.minEv
	}
	if e.nbucket > 0 {
		// The window [base, base+wheelSpan) starts at base's slot and
		// wraps around the ring.
		s := int(e.base>>bucketShift) & bucketMask
		b := e.occScan(s, numBuckets-1)
		if b < 0 && s > 0 {
			b = e.occScan(0, s-1)
		}
		if b < 0 {
			panic("sim: wheel occupancy out of sync")
		}
		e.minEv = e.buckets[b].head
		return e.minEv
	}
	if len(e.spill) > 0 {
		e.minEv = e.spill[0]
		return e.minEv
	}
	return nil
}

// occScan returns the first occupied bucket slot in [from, to], or -1.
// The caller decomposes ring wraparound into at most two linear scans.
func (e *Engine) occScan(from, to int) int {
	for w := from >> 6; w <= to>>6; w++ {
		word := e.occ[w]
		if w == from>>6 {
			word &= ^uint64(0) << (from & 63)
		}
		if w == to>>6 {
			word &= ^uint64(0) >> (63 - to&63)
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// --- spill heap ---------------------------------------------------------
//
// A hand-rolled binary min-heap on (at, seq) for the far events only; the
// lane and the buckets are lists. container/heap would box every push
// through an interface value and indirect every comparison; inlining the
// sift operations keeps the spill path free of both.

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapRemoveAt removes and returns the event at index i of heap *q.
func heapRemoveAt(q *[]*event, i int) *event {
	s := *q
	n := len(s) - 1
	ev := s[i]
	if i != n {
		s[i] = s[n]
		s[i].idx = int32(i)
	}
	s[n] = nil
	*q = s[:n]
	if i != n {
		if !heapDown(s[:n], i) {
			heapUp(s[:n], i)
		}
	}
	return ev
}

func heapUp(q []*event, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		q[i].idx = int32(i)
		q[parent].idx = int32(parent)
		i = parent
	}
}

// heapDown sifts index i down; reports whether it moved.
func heapDown(q []*event, i int) bool {
	n := len(q)
	start := i
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && eventLess(q[right], q[left]) {
			least = right
		}
		if !eventLess(q[least], q[i]) {
			break
		}
		q[i], q[least] = q[least], q[i]
		q[i].idx = int32(i)
		q[least].idx = int32(least)
		i = least
	}
	return i > start
}
