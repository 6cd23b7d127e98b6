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
// The pending-event structure is a timing-wheel / calendar-queue hybrid
// (see DESIGN.md §3i): events within the near horizon land in fixed-width
// buckets indexed directly from their timestamp, far events overflow to a
// sorted spill heap and migrate into the wheel as the clock approaches
// them. Dispatch order is exactly the (at, seq) total order a single
// binary heap would produce — the wheel only changes *where* an event
// waits, never *when* it fires relative to its peers — which the
// differential test against a reference heap (refheap_test.go) pins.
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
// (256 × 1.024 µs ≈ 262 µs) ahead of the wheel base. The figures are
// calibrated to the simulator's event mix: context-switch and message
// costs (0.1–5 µs), scheduling quanta (5–250 µs) and agent wakeups all
// land inside the wheel; only millisecond-scale timers (ticks, watchdogs,
// deadlines) take the spill path, and each migrates into the wheel at
// most once. Geometry affects performance only — dispatch order is the
// (at, seq) total order regardless.
const (
	bucketShift = 10
	bucketWidth = Time(1) << bucketShift
	numBuckets  = 256
	bucketMask  = numBuckets - 1
	wheelSpan   = bucketWidth * numBuckets
)

// slotSpill marks an event parked in the spill heap rather than a wheel
// bucket. Values >= 0 are wheel bucket indices.
const slotSpill = -1

// event is the pooled storage behind a scheduled callback. Exactly one of
// fn/afn is set; afn receives arg, which lets pre-bound callbacks avoid a
// per-event closure allocation.
type event struct {
	at   Time
	seq  uint64 // tie-break for FIFO ordering of same-time events
	gen  uint64 // bumped on every recycle; validates Event handles
	idx  int    // position in its container; -1 when not queued
	slot int32  // wheel bucket index, or slotSpill; meaningful only when idx >= 0

	fn  func()
	afn func(any)
	arg any

	eng *Engine
}

// Event is a generational handle to a scheduled callback.
//
// Aliasing rule: the engine recycles event storage once an event fires or
// is cancelled, so a handle goes stale at that moment — the same storage
// may already describe a different, live event. Handles carry a generation
// number so stale use is safe: Cancel on a stale handle is a no-op (it
// will never cancel the recycled successor) and Pending reports false.
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
	if ev == nil || ev.gen != h.gen || ev.idx == -1 {
		return
	}
	ev.eng.remove(ev)
	ev.eng.recycle(ev)
}

// Pending reports whether the event is still queued (in the wheel or the
// spill heap).
func (h Event) Pending() bool {
	return h.e != nil && h.e.gen == h.gen && h.e.idx != -1
}

// Engine is the discrete-event scheduler: one per simulated machine.
// Construct with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// Timing wheel: buckets[i] is a small (at, seq) min-heap of events
	// with at in the bucket's fixed-width window; occ tracks non-empty
	// buckets for O(words) next-bucket scans. base is the wheel window
	// start (aligned to bucketWidth, advanced lazily from the clock);
	// spill is the (at, seq) min-heap of events at or beyond base +
	// wheelSpan. minEv caches the pending minimum; nil means recompute.
	base    Time
	buckets [numBuckets][]*event
	occ     [numBuckets / 64]uint64
	nbucket int // live events across all buckets
	spill   []*event
	minEv   *event

	free    []*event // recycled event storage
	stopped bool

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
	return &event{eng: e, idx: -1}
}

// schedule queues a pooled event and returns its handle.
func (e *Engine) schedule(at Time, fn func(), afn func(any), arg any) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.sync()
	ev := e.alloc()
	ev.at, ev.fn, ev.afn, ev.arg, ev.seq = at, fn, afn, arg, e.seq
	e.seq++
	e.push(ev)
	return Event{e: ev, gen: ev.gen}
}

// recycle invalidates outstanding handles to ev and returns its storage to
// the free list. ev must not be queued.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time at. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(at Time, fn func()) Event {
	return e.schedule(at, fn, nil, nil)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.schedule(e.now+d, nil, nil, nil).bindFn(fn)
}

// bindFn sets the niladic callback on a freshly scheduled event.
func (h Event) bindFn(fn func()) Event {
	h.e.fn = fn
	return h
}

// AtCall schedules fn(arg) at absolute time at. With a callback bound
// once and reused across calls (a stored method value), the schedule path
// allocates nothing — the high-frequency sites (reschedule passes, run
// completions, timer ticks, transaction installs) use this form.
func (e *Engine) AtCall(at Time, fn func(any), arg any) Event {
	return e.schedule(at, nil, fn, arg)
}

// AfterCall schedules fn(arg) to run d nanoseconds from now. See AtCall.
func (e *Engine) AfterCall(d Duration, fn func(any), arg any) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.schedule(e.now+d, nil, fn, arg)
}

// Cancel cancels h; equivalent to h.Cancel.
func (e *Engine) Cancel(h Event) { h.Cancel() }

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Empty reports whether no events remain. Cancelled events are removed
// from the wheel eagerly, so this is O(1).
func (e *Engine) Empty() bool { return e.nbucket+len(e.spill) == 0 }

// Queued returns the number of pending (live) events.
func (e *Engine) Queued() int { return e.nbucket + len(e.spill) }

// step fires the next event. Returns false when the queue is exhausted or
// only events beyond limit remain.
func (e *Engine) step(limit Time) bool {
	e.sync()
	next := e.peek()
	if next == nil || next.at > limit {
		return false
	}
	if next.at < e.now {
		panic("sim: event wheel returned time in the past")
	}
	e.remove(next)
	e.now = next.at
	e.Executed++
	// The queued figure sampled here (and handed to OnDispatch) is the
	// number of live events still pending after this pop.
	queued := e.nbucket + len(e.spill)
	if queued > e.MaxQueue {
		e.MaxQueue = queued
	}
	if e.OnDispatch != nil {
		e.OnDispatch(e.now, queued)
	}
	// Recycle before dispatch: the callback may immediately schedule a
	// new event into this storage; outstanding handles to the fired
	// event are invalidated by the generation bump either way.
	fn, afn, arg := next.fn, next.afn, next.arg
	e.recycle(next)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step(MaxTime) {
	}
}

// RunUntil executes events with At <= deadline, then advances the clock to
// exactly deadline. Events scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && e.step(deadline) {
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d nanoseconds.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now + d) }

// --- timing wheel -----------------------------------------------------
//
// Invariants. All live events have at >= e.now (dispatch fires the global
// minimum and schedule rejects the past) and base <= e.now at all times,
// so every bucket event's at lies in [base, base+wheelSpan) and every
// spill event's at in [base+wheelSpan, ∞). The bucket index of a time is
// (at >> bucketShift) & bucketMask — independent of base — so advancing
// base never relocates bucket events; it only widens the window, after
// which sync migrates newly covered spill events into their buckets.
// Within one bucket the mini-heap orders by (at, seq); across buckets the
// scan from the clock's slot visits strictly increasing time windows; and
// the spill heap only surfaces when every bucket is empty, in which case
// its (at, seq) minimum is the global one. Hence peek/pop realize the
// exact single-heap total order.

// sync advances the wheel base to the clock's bucket boundary and migrates
// spill events that the wider window now covers. RunUntil moves the clock
// without dispatching, so base catches up lazily here rather than at
// every clock write.
func (e *Engine) sync() {
	nb := (e.now >> bucketShift) << bucketShift
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
		ev.idx = len(e.spill)
		e.spill = append(e.spill, ev)
		heapUp(e.spill, ev.idx)
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
	ev.idx = len(*b)
	*b = append(*b, ev)
	heapUp(*b, ev.idx)
	if len(*b) == 1 {
		e.occ[slot>>6] |= 1 << (slot & 63)
	}
	e.nbucket++
}

// remove unfiles a live event from its container (wheel bucket or spill
// heap). The caller recycles or re-files it.
func (e *Engine) remove(ev *event) {
	if ev == e.minEv {
		e.minEv = nil
	}
	if ev.slot == slotSpill {
		heapRemoveAt(&e.spill, ev.idx)
		return
	}
	slot := int(ev.slot)
	b := &e.buckets[slot]
	heapRemoveAt(b, ev.idx)
	if len(*b) == 0 {
		e.occ[slot>>6] &^= 1 << (slot & 63)
	}
	e.nbucket--
}

// peek returns the pending event with the least (at, seq), or nil. The
// result is cached until the minimum is popped, cancelled or displaced,
// so repeated peeks are O(1).
func (e *Engine) peek() *event {
	if e.minEv != nil {
		return e.minEv
	}
	if e.nbucket > 0 {
		start := e.now
		if start < e.base {
			start = e.base
		}
		s := int(start>>bucketShift) & bucketMask
		baseSlot := int(e.base>>bucketShift) & bucketMask
		b := -1
		if s >= baseSlot {
			b = e.occScan(s, numBuckets-1)
			if b < 0 && baseSlot > 0 {
				b = e.occScan(0, baseSlot-1)
			}
		} else {
			b = e.occScan(s, baseSlot-1)
		}
		if b < 0 {
			panic("sim: wheel occupancy out of sync")
		}
		e.minEv = e.buckets[b][0]
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

// --- per-container event heap ----------------------------------------
//
// A hand-rolled binary min-heap on (at, seq), shared by the per-bucket
// mini-heaps and the spill heap. container/heap would box every push
// through an interface value and indirect every comparison; inlining the
// sift operations keeps the schedule->dispatch path free of both. Bucket
// heaps hold only the events of one ~1 µs window, so sift depth is a
// couple of levels over a cache-resident slice.

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapRemoveAt removes and returns the event at index i of heap *q,
// clearing its idx.
func heapRemoveAt(q *[]*event, i int) *event {
	s := *q
	n := len(s) - 1
	ev := s[i]
	if i != n {
		s[i] = s[n]
		s[i].idx = i
	}
	s[n] = nil
	*q = s[:n]
	if i != n {
		if !heapDown(s[:n], i) {
			heapUp(s[:n], i)
		}
	}
	ev.idx = -1
	return ev
}

func heapUp(q []*event, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		q[i].idx = i
		q[parent].idx = parent
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
		q[i].idx = i
		q[least].idx = least
		i = least
	}
	return i > start
}
