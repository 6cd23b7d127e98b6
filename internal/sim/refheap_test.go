package sim

import (
	"sort"
	"testing"
)

// Differential test: the engine (now-lane, list-bucket timing wheel and
// spill heap) against a reference copy of the binary min-heap it
// replaced. The reference implements the same (at, seq) total order with
// the simplest possible structure — one heap, no lane, no buckets, no
// spill, no free list — so any divergence in dispatch order, queue
// length or handle behavior is the engine's fault.

// refEvent is a reference-queue entry.
type refEvent struct {
	at  Time
	seq uint64
	id  int // trace-assigned identity, the engine event's argument
}

// refHeap is the engine's original event queue: a binary min-heap on
// (at, seq) with eager removal on cancel.
type refHeap struct {
	seq      uint64
	popped   uint64 // events dispatched
	maxQueue int    // high-water mark of len(q) after a pop
	q        []*refEvent
	pos      map[*refEvent]int
	live     map[int]*refEvent // id -> live event, for cancel/pending queries
}

func newRefHeap() *refHeap {
	return &refHeap{pos: make(map[*refEvent]int), live: make(map[int]*refEvent)}
}

func (r *refHeap) less(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (r *refHeap) schedule(at Time, id int) {
	ev := &refEvent{at: at, seq: r.seq, id: id}
	r.seq++
	r.q = append(r.q, ev)
	r.pos[ev] = len(r.q) - 1
	r.up(len(r.q) - 1)
	r.live[id] = ev
}

func (r *refHeap) cancel(id int) bool {
	ev, ok := r.live[id]
	if !ok {
		return false
	}
	r.removeAt(r.pos[ev])
	delete(r.live, id)
	return true
}

// move re-files a live id at at with a fresh seq: a cancel plus a
// schedule under the same id. It reports whether id was live.
func (r *refHeap) move(id int, at Time) bool {
	if !r.cancel(id) {
		return false
	}
	r.schedule(at, id)
	return true
}

func (r *refHeap) pending(id int) bool {
	_, ok := r.live[id]
	return ok
}

// pop removes and returns the next event, or nil when none is queued,
// and records the queue's high-water mark the way Engine.MaxQueue does.
func (r *refHeap) pop() *refEvent {
	if len(r.q) == 0 {
		return nil
	}
	ev := r.removeAt(0)
	delete(r.live, ev.id)
	r.popped++
	if len(r.q) > r.maxQueue {
		r.maxQueue = len(r.q)
	}
	return ev
}

// next returns the time of the next event, if any.
func (r *refHeap) next() (Time, bool) {
	if len(r.q) == 0 {
		return 0, false
	}
	return r.q[0].at, true
}

// ordered returns the live events in (at, seq) order.
func (r *refHeap) ordered() []*refEvent {
	evs := append([]*refEvent(nil), r.q...)
	sort.Slice(evs, func(i, j int) bool { return r.less(evs[i], evs[j]) })
	return evs
}

func (r *refHeap) removeAt(i int) *refEvent {
	ev := r.q[i]
	n := len(r.q) - 1
	if i != n {
		r.q[i] = r.q[n]
		r.pos[r.q[i]] = i
	}
	r.q = r.q[:n]
	delete(r.pos, ev)
	if i != n {
		r.down(i)
		r.up(i)
	}
	return ev
}

func (r *refHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !r.less(r.q[i], r.q[p]) {
			break
		}
		r.q[i], r.q[p] = r.q[p], r.q[i]
		r.pos[r.q[i]], r.pos[r.q[p]] = i, p
		i = p
	}
}

func (r *refHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(r.q) {
			return
		}
		least := l
		if rt := l + 1; rt < len(r.q) && r.less(r.q[rt], r.q[l]) {
			least = rt
		}
		if !r.less(r.q[least], r.q[i]) {
			return
		}
		r.q[i], r.q[least] = r.q[least], r.q[i]
		r.pos[r.q[i]], r.pos[r.q[least]] = i, least
		i = least
	}
}

// refDelays draws delays across the engine's interesting ranges: zero
// (the now-lane), sub-bucket, bucket-straddling, bucket-aligned, packed
// into one bucket, across the wheel span's edge, and far past it (spill
// migration). Each takes the clock, so a generator can aim at a bucket.
var refDelays = []func(rng *Rand, now Time) Time{
	func(rng *Rand, now Time) Time { return 0 },
	func(rng *Rand, now Time) Time { return Time(rng.Intn(int(bucketWidth))) },
	func(rng *Rand, now Time) Time { return Time(rng.Intn(int(8 * bucketWidth))) },
	func(rng *Rand, now Time) Time { return Time(rng.Intn(64)) * bucketWidth },
	// Two buckets past the clock's, at a random offset: every event
	// scheduled while the clock stays in one bucket crowds into the same
	// later bucket in random order, as a 256-CPU machine's switch ends
	// and installs do, so inserts walk back past later events.
	func(rng *Rand, now Time) Time {
		return (now>>bucketShift+2)<<bucketShift - now + Time(rng.Intn(int(bucketWidth)))
	},
	func(rng *Rand, now Time) Time { return Time(rng.Intn(int(2 * wheelSpan))) },
	func(rng *Rand, now Time) Time {
		return wheelSpan - 2*bucketWidth + Time(rng.Intn(int(4*bucketWidth)))
	},
	func(rng *Rand, now Time) Time {
		return Time(2+rng.Intn(8))*wheelSpan + Time(rng.Intn(int(wheelSpan)))
	},
}

// randDelay draws a delay from a random generator of refDelays.
func (r *diffRun) randDelay() Time {
	return refDelays[r.rng.Intn(len(refDelays))](r.rng, r.eng.Now())
}

// diffRun is one differential trace: the engine and the reference in
// lockstep. The reference pops in OnDispatch, so every engine dispatch
// is checked against it as it happens, and callbacks may schedule,
// cancel and checkpoint on both sides from inside dispatch.
type diffRun struct {
	t     *testing.T
	trace int
	rng   *Rand
	eng   *Engine
	ref   *refHeap

	handles map[int]Event // id -> engine handle, stale ones included
	chain   map[int]int   // id -> zero-delay links still to schedule when it fires
	nextID  int
	popped  int  // id of the event the reference popped at the current dispatch
	limit   Time // deadline of the current run (MaxTime for Run)
	fire    func(any)

	// Coverage: the paths the trace must have reached.
	laneCancels, wheelCancels, laneTrips, restoredAtNow int
	moves, staleMoves, walkedInserts                    int
}

func (r *diffRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("trace %d: "+format, append([]any{r.trace}, args...)...)
}

func newDiffRun(t *testing.T, trace int) *diffRun {
	r := &diffRun{
		t: t, trace: trace, rng: NewRand(uint64(trace) + 1),
		eng: NewEngine(), ref: newRefHeap(),
		handles: map[int]Event{}, chain: map[int]int{},
	}
	r.fire = r.dispatch
	r.eng.OnDispatch = func(now Time, queued int) {
		ev := r.ref.pop()
		switch {
		case ev == nil:
			r.fatalf("engine dispatched at %v, reference is empty", now)
		case ev.at != now:
			r.fatalf("engine dispatched at %v, reference id %d is due at %v", now, ev.id, ev.at)
		case now > r.limit:
			r.fatalf("engine dispatched at %v, past the run's deadline %v", now, r.limit)
		case queued != len(r.ref.q):
			r.fatalf("engine reports %d queued after dispatch, reference %d", queued, len(r.ref.q))
		}
		r.popped = ev.id
	}
	return r
}

// schedule files one event at now+d on both sides and returns its id.
func (r *diffRun) schedule(d Time) int {
	return r.scheduleAt(r.eng.Now() + d)
}

func (r *diffRun) scheduleAt(at Time) int {
	if r.walks(at) {
		r.walkedInserts++
	}
	id := r.nextID
	r.nextID++
	if id%3 == 0 {
		// Every third event is a closure, so checkpoints restore both
		// callback forms.
		r.handles[id] = r.eng.At(at, func() { r.fire(id) })
	} else {
		r.handles[id] = r.eng.AtCall(at, r.fire, id)
	}
	r.ref.schedule(at, id)
	return id
}

// walks reports whether an event scheduled at at will be filed into a
// wheel bucket whose tail is later, so that its insert walks back.
func (r *diffRun) walks(at Time) bool {
	e := r.eng
	if at == e.now || at-e.base >= wheelSpan {
		return false
	}
	h := e.buckets[int(at>>bucketShift)&bucketMask].head
	return h != nil && at < h.prev.at
}

// cancel cancels id on both sides; they must agree on whether it was
// live, and the engine handle must go stale.
func (r *diffRun) cancel(id int) {
	h := r.handles[id]
	wasLive := r.ref.cancel(id)
	if got := h.Pending(); got != wasLive {
		r.fatalf("Pending(%d) = %v before cancel, reference live = %v", id, got, wasLive)
	}
	if wasLive {
		if h.e.slot == slotLane {
			r.laneCancels++
		} else {
			r.wheelCancels++
		}
	}
	h.Cancel()
	if h.Pending() {
		r.fatalf("event %d Pending after Cancel", id)
	}
	if r.eng.Queued() != len(r.ref.q) {
		r.fatalf("Queued = %d after cancel, reference %d", r.eng.Queued(), len(r.ref.q))
	}
}

// move re-times id to now+d on both sides; they must agree on whether
// it was live. A live handle stays valid across the move, a stale one
// stays stale, and only the reference's order says where it now fires.
func (r *diffRun) move(id int, d Time) {
	h := r.handles[id]
	wasLive := r.ref.move(id, r.eng.Now()+d)
	if got := h.Move(r.eng.Now() + d); got != wasLive {
		r.fatalf("Move(%d) = %v, reference live = %v", id, got, wasLive)
	}
	if h.Pending() != wasLive {
		r.fatalf("event %d Pending = %v after Move, reference live = %v", id, h.Pending(), wasLive)
	}
	if wasLive {
		r.moves++
	} else {
		r.staleMoves++
	}
	if r.eng.Queued() != len(r.ref.q) {
		r.fatalf("Queued = %d after move, reference %d", r.eng.Queued(), len(r.ref.q))
	}
}

// dispatch is every event's callback: it checks the id against the
// reference's pop, then acts from inside dispatch.
func (r *diffRun) dispatch(a any) {
	id := a.(int)
	if id != r.popped {
		r.fatalf("dispatched id %d, reference popped id %d", id, r.popped)
	}
	if links, ok := r.chain[id]; ok {
		// A zero-delay chain link schedules only the next link.
		delete(r.chain, id)
		if links > 0 {
			r.chain[r.schedule(0)] = links - 1
		}
		return
	}
	if r.nextID > 20000 {
		return
	}
	switch k := r.rng.Intn(40); {
	case k < 6: // schedule from inside dispatch
		r.schedule(r.randDelay())
	case k < 10: // a nested zero-delay chain
		r.chain[r.schedule(0)] = r.rng.Intn(4)
	case k < 13: // cancel a fresh lane event
		r.cancel(r.schedule(0))
	case k < 18: // cancel a recent event: lane, wheel or spill
		r.schedule(0)
		r.cancel(r.nextID - 1 - r.rng.Intn(min(r.nextID, 12)))
	case k < 19: // a checkpoint round trip with the lane non-empty
		for n := 1 + r.rng.Intn(3); n > 0; n-- {
			r.schedule(0)
		}
		r.roundTrip()
	case k < 22: // move a recent event, live or stale, from inside dispatch
		r.move(r.nextID-1-r.rng.Intn(min(r.nextID, 12)), r.randDelay())
	}
}

// reverseBurst files n events into one bucket in descending time order,
// so every insert walks the bucket list from the tail to its head.
func (r *diffRun) reverseBurst() {
	w := ((r.eng.Now()+Time(r.rng.Intn(int(wheelSpan))))>>bucketShift)<<bucketShift + bucketWidth
	n := 5 + r.rng.Intn(36)
	for k := 0; k < n; k++ {
		r.scheduleAt(w + bucketWidth - 1 - Time(k)*(bucketWidth/Time(n)))
	}
}

// run executes to limit (MaxTime: Run to exhaustion). No dispatch may
// pass the deadline (checked in OnDispatch), no event due by it may be
// left behind, and a RunUntil must end with the clock exactly at the
// deadline.
func (r *diffRun) run(limit Time) {
	r.limit = limit
	if limit == MaxTime {
		r.eng.Run()
	} else {
		r.eng.RunUntil(limit)
	}
	if at, ok := r.ref.next(); ok && at <= limit {
		r.fatalf("run to %v stopped early: reference has an event due at %v", limit, at)
	}
	if limit != MaxTime && r.eng.Now() != limit {
		r.fatalf("RunUntil(%v) left the clock at %v", limit, r.eng.Now())
	}
}

// roundTrip snapshots the engine's pending events, resets it and re-files
// them, as checkpoint restore does; the order must match the reference.
// A callback calls it as its last action, so the dispatch loop goes on
// from the restored queue exactly as a run resumed from the checkpoint.
func (r *diffRun) roundTrip() {
	if r.eng.nlane > 0 {
		r.laneTrips++
	}
	pend := r.eng.Pending()
	want := r.ref.ordered()
	if len(pend) != len(want) {
		r.fatalf("Pending has %d events, reference %d", len(pend), len(want))
	}
	for i, p := range pend {
		w := want[i]
		id, ok := p.Arg.(int)
		if w.id%3 == 0 {
			_, ok = p.Arg.(func())
			id = w.id
		}
		if !ok || id != w.id || p.At != w.at || p.Seq != w.seq {
			r.fatalf("Pending[%d] = arg %v (%v, %d), reference id %d (%v, %d)", i, p.Arg, p.At, p.Seq, w.id, w.at, w.seq)
		}
	}
	e := r.eng
	e.Reset(e.Now(), e.Seq(), e.Executed, e.MaxQueue)
	for i, p := range pend {
		id := want[i].id
		if r.handles[id].Pending() {
			r.fatalf("handle %d still Pending after Reset", id)
		}
		h, err := e.RestoreEvent(p.At, p.Seq, p.AFn, p.Arg)
		if err != nil {
			r.fatalf("RestoreEvent: %v", err)
		}
		r.handles[id] = h
		if p.At == e.Now() {
			r.restoredAtNow++
		}
	}
	if e.nlane != 0 || e.Queued() != len(want) {
		r.fatalf("after restore: lane %d, queued %d, want lane 0, queued %d", e.nlane, e.Queued(), len(want))
	}
}

// TestEngineMatchesReferenceHeap drives random schedule/cancel/move/run
// traces through the engine and the reference heap in lockstep and
// asserts identical dispatch order, queue length, MaxQueue and handle
// (Pending, stale Cancel and Move) behavior; the reference models a move
// as a cancel plus a schedule. Callbacks schedule (including nested
// zero-delay chains), cancel and move lane and wheel events and make a
// checkpoint round trip from inside dispatch.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	var laneCancels, wheelCancels, laneTrips, restoredAtNow, moves, staleMoves, walkedInserts int
	for trace := 0; trace < 60; trace++ {
		r := newDiffRun(t, trace)
		eng, rng := r.eng, r.rng
		for i := 0; i < 20; i++ {
			r.schedule(r.randDelay())
		}
		for op := 0; op < 400; op++ {
			switch rng.Intn(13) {
			case 0, 1, 2, 3:
				r.schedule(r.randDelay())
			case 4, 5:
				// Cancel a random known id, live or stale.
				r.cancel(rng.Intn(r.nextID))
			case 6:
				// Pending probe on a random id must match the reference.
				id := rng.Intn(r.nextID)
				if got, want := r.handles[id].Pending(), r.ref.pending(id); got != want {
					r.fatalf("Pending(%d) = %v, reference = %v", id, got, want)
				}
			case 7:
				r.reverseBurst()
			case 8:
				// Move a random known id, live or stale.
				r.move(rng.Intn(r.nextID), r.randDelay())
			default:
				r.run(eng.Now() + Time(rng.Intn(int(wheelSpan/2))))
			}
		}
		r.run(MaxTime)
		if eng.Queued() != 0 || len(r.ref.q) != 0 {
			r.fatalf("not empty after full drain: engine %d, reference %d", eng.Queued(), len(r.ref.q))
		}
		if eng.Executed != r.ref.popped || eng.MaxQueue != r.ref.maxQueue {
			r.fatalf("Executed %d MaxQueue %d, reference %d and %d", eng.Executed, eng.MaxQueue, r.ref.popped, r.ref.maxQueue)
		}
		laneCancels += r.laneCancels
		wheelCancels += r.wheelCancels
		laneTrips += r.laneTrips
		restoredAtNow += r.restoredAtNow
		moves += r.moves
		staleMoves += r.staleMoves
		walkedInserts += r.walkedInserts
	}
	if laneCancels == 0 || wheelCancels == 0 || laneTrips == 0 || restoredAtNow == 0 || moves == 0 || staleMoves == 0 || walkedInserts == 0 {
		t.Fatalf("traces missed a path: %d lane cancels, %d wheel cancels, %d round trips with a non-empty lane, %d events restored at now, %d moves, %d stale moves, %d walked inserts",
			laneCancels, wheelCancels, laneTrips, restoredAtNow, moves, staleMoves, walkedInserts)
	}
	t.Logf("%d lane cancels, %d wheel cancels, %d round trips with a non-empty lane, %d events restored at now, %d moves, %d stale moves, %d walked inserts",
		laneCancels, wheelCancels, laneTrips, restoredAtNow, moves, staleMoves, walkedInserts)
}
