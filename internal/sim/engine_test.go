package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, v)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.After(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("nested event fired at %v, want 150", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(10, func() { ran = true })
	ev.Cancel()
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Queued() != 0 {
		t.Fatal("engine not empty after run")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var count int
	e.At(10, func() { count++ })
	e.At(20, func() { count++ })
	e.At(30, func() { count++ })
	e.RunUntil(20)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if e.Now() != 20 {
		t.Fatalf("now = %v, want 20", e.Now())
	}
	e.RunFor(10)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var fires []Time
	NewTicker(e, 100, func(now Time) { fires = append(fires, now) })
	e.RunUntil(550)
	if len(fires) != 5 {
		t.Fatalf("fires = %d, want 5", len(fires))
	}
	for i, f := range fires {
		if f != Time(100*(i+1)) {
			t.Fatalf("fire %d at %v, want %v", i, f, 100*(i+1))
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500:        "500ns",
		1500:       "1.500us",
		2500000:    "2.500ms",
		3000000000: "3.000000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(in), got, want)
		}
	}
}

// Property: event execution order matches sorted schedule order regardless
// of insertion order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		e := NewEngine()
		var got []Time
		for _, at := range times {
			at := Time(at)
			e.At(at, func() { got = append(got, at) })
		}
		e.Run()
		if len(got) != len(times) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRand(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRand(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("different-seed generators suspiciously similar")
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(7)
	const mean = 10000
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(mean))
	}
	got := sum / n
	if got < mean*0.97 || got > mean*1.03 {
		t.Fatalf("Exp mean = %.1f, want ~%d", got, mean)
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(1)
	f := func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRandFork(t *testing.T) {
	r := NewRand(5)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked generators produced identical first value")
	}
}

// The free list recycles event storage the moment an event fires or is
// cancelled. These tests pin the aliasing rule: a stale handle must never
// reach through to the recycled successor occupying the same storage.

func TestEventStaleHandleAfterFire(t *testing.T) {
	e := NewEngine()
	var ran []string
	h1 := e.At(10, func() { ran = append(ran, "first") })
	e.Run()
	if h1.Pending() {
		t.Fatal("fired event still Pending through stale handle")
	}
	// The next schedule reuses h1's storage (single-event free list).
	e.At(20, func() { ran = append(ran, "second") })
	h1.Cancel() // stale: must NOT cancel the recycled successor
	if h1.Move(5) {
		t.Fatal("Move through a stale handle reported success")
	}
	if h1.Pending() {
		t.Fatal("stale handle reports Pending for recycled successor")
	}
	e.Run()
	if len(ran) != 2 || ran[1] != "second" {
		t.Fatalf("stale Cancel affected recycled event: ran=%v", ran)
	}
}

func TestEventStaleHandleAfterCancel(t *testing.T) {
	e := NewEngine()
	h := e.At(10, func() { t.Error("cancelled event ran") })
	h.Cancel()
	if h.Pending() {
		t.Fatal("cancelled event still Pending")
	}
	ran := false
	e.At(10, func() { ran = true }) // reuses the cancelled event's storage
	h.Cancel()                      // double-cancel through a stale handle
	if h.Move(1) {
		t.Fatal("Move through a cancelled handle reported success")
	}
	e.RunUntil(9)
	if ran {
		t.Fatal("stale Move pulled the recycled event forward")
	}
	e.Run()
	if !ran {
		t.Fatal("stale double-Cancel removed the recycled event")
	}
}

func TestEventZeroHandle(t *testing.T) {
	var h Event
	h.Cancel() // must not panic
	if h.Pending() {
		t.Fatal("zero Event reports Pending")
	}
}

func TestEventReuseRecycling(t *testing.T) {
	e := NewEngine()
	// Schedule+fire many one-at-a-time events: the pool should keep
	// storage bounded at a single event (plus handles going stale).
	var fired int
	for i := 0; i < 1000; i++ {
		e.After(1, func() { fired++ })
		e.step(MaxTime)
	}
	if fired != 1000 {
		t.Fatalf("fired = %d, want 1000", fired)
	}
	if len(e.free) != 1 {
		t.Fatalf("free list has %d events after serial reuse, want 1", len(e.free))
	}
}

// Cancelled events must leave the queue eagerly: Empty and Queued are O(1)
// and the queue length reflects live events only.
func TestEngineCancelEagerRemoval(t *testing.T) {
	e := NewEngine()
	const n = 10000
	handles := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		handles = append(handles, e.At(Time(i+1), func() { t.Error("cancelled event ran") }))
	}
	if e.Queued() != n {
		t.Fatalf("Queued = %d, want %d", e.Queued(), n)
	}
	for _, h := range handles {
		h.Cancel()
	}
	if e.Queued() != 0 {
		t.Fatal("engine not Empty after cancelling every event")
	}
	if e.Queued() != 0 {
		t.Fatalf("Queued = %d after mass cancel, want 0", e.Queued())
	}
	e.Run()
	if e.Executed != 0 {
		t.Fatalf("Executed = %d, want 0 (all events were cancelled)", e.Executed)
	}
	// Interleaved: cancel every other event, fire the rest.
	var fired int
	handles = handles[:0]
	for i := 0; i < n; i++ {
		handles = append(handles, e.At(Time(i+1), func() { fired++ }))
	}
	for i := 0; i < n; i += 2 {
		handles[i].Cancel()
	}
	if e.Queued() != n/2 {
		t.Fatalf("Queued = %d after half cancel, want %d", e.Queued(), n/2)
	}
	e.Run()
	if fired != n/2 {
		t.Fatalf("fired = %d, want %d", fired, n/2)
	}
	if e.Queued() != 0 {
		t.Fatal("engine not empty after run")
	}
}

// TestWheelSpanHoldsTick pins the wheel's span: a timer 1 ms ahead (the
// kernel's tick period, re-armed on every CPU) files into the wheel from
// every clock phase within a bucket, never into the spill heap.
func TestWheelSpanHoldsTick(t *testing.T) {
	fn := func(any) {}
	for phase := Time(0); phase < bucketWidth; phase++ {
		e := NewEngine()
		e.RunUntil(5*Millisecond + phase)
		h := e.AfterCall(Millisecond, fn, nil)
		if h.e.slot == slotSpill {
			t.Fatalf("at %v a 1ms timer spilled: the wheel spans %v from its base %v", e.Now(), wheelSpan, e.base)
		}
	}
}

func TestEngineAtCallOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	push := func(a any) { got = append(got, a.(int)) }
	e.AtCall(30, push, 3)
	e.AtCall(10, push, 1)
	e.AfterCall(20, push, 2)
	e.At(10, func() { got = append(got, 11) }) // same time as AtCall(10): FIFO
	e.Run()
	want := []int{1, 11, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// The schedule→dispatch path must be allocation-free once the pool is
// warm; this is the CI-enforced form of BenchmarkEngineSchedule's
// 0 allocs/op acceptance criterion.
func TestEngineScheduleAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func(any) {}
	// Warm the pool.
	e.AfterCall(1, fn, e)
	e.step(MaxTime)
	if avg := testing.AllocsPerRun(1000, func() {
		e.AfterCall(1, fn, e)
		e.step(MaxTime)
	}); avg != 0 {
		t.Fatalf("AfterCall schedule→dispatch allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		e.After(1, func() {})
		e.step(MaxTime)
	}); avg != 0 {
		t.Fatalf("After (closure) schedule→dispatch allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		h := e.AfterCall(1, fn, e)
		h.Cancel()
	}); avg != 0 {
		t.Fatalf("schedule→cancel allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		e.AfterCall(0, fn, e)
		e.step(MaxTime)
	}); avg != 0 {
		t.Fatalf("zero-delay (now-lane) schedule→dispatch allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		h := e.AfterCall(0, fn, e)
		h.Cancel()
	}); avg != 0 {
		t.Fatalf("now-lane schedule→cancel allocates %.1f/op, want 0", avg)
	}
}

// warmEngine pre-grows the queue and free list so benchmarks measure
// the steady state (0 allocs/op) even at -benchtime 1x.
func warmEngine(e *Engine) {
	e.After(1, func() {})
	e.step(MaxTime)
}

func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	warmEngine(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.step(MaxTime)
	}
}

func BenchmarkEngineScheduleCall(b *testing.B) {
	e := NewEngine()
	warmEngine(e)
	fn := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterCall(1, fn, e)
		e.step(MaxTime)
	}
}

func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	warmEngine(e)
	fn := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := e.AfterCall(1, fn, e)
		h.Cancel()
	}
}

// mixLoad replays search-cfs's event mix on a bare engine, for a 256-CPU
// machine of 128 SMT pairs. Each CPU cycles through a reschedule pass
// (due at now), a context-switch end 0.1-2 µs ahead and a run
// completion, mostly 250-400 µs ahead and 4% past the wheel's span. A
// completion speeds up its sibling's run and a switch end slows it down,
// each by re-timing the sibling's completion (a Move); one switch end in
// twenty preempts the sibling instead (a cancel). Requests arrive about
// every 2.4 µs and each triggers two reschedule passes, and every CPU
// ticks once a millisecond. Per dispatch that is 43% reschedule passes,
// 20% switch ends, 19% completions, 12% arrivals and 7% ticks; of all
// schedules 31% are due at now, 27% are Moves, 0.7% cancels and 1.6%
// spill pushes. With the switch ends of 256 CPUs in flight, 1 µs
// buckets hold several of them in no particular order: a third of wheel
// inserts walk back past a later event, as on search-ghost.
type mixLoad struct {
	e    *Engine
	plan []Time // pre-drawn uniform variates in [0, 1e6)
	next int
	done [256]Event // each CPU's pending run completion

	resched, switched, completed, arrived, ticked, idle func(any)
}

const mixCPUs = len(mixLoad{}.done)

// draw returns the next pre-drawn variate, in [0, 1e6).
func (m *mixLoad) draw() Time {
	v := m.plan[m.next]
	m.next = (m.next + 1) & (len(m.plan) - 1)
	return v
}

func newMixLoad() *mixLoad {
	m := &mixLoad{e: NewEngine()}
	m.resched, m.switched, m.completed = m.onResched, m.onSwitch, m.onComplete
	m.arrived, m.ticked, m.idle = m.onArrival, m.onTick, func(any) {}
	rng := NewRand(1)
	m.plan = make([]Time, 1<<16)
	for i := range m.plan {
		m.plan[i] = Time(rng.Intn(1e6))
	}
	// A CPU number boxes into an any without allocating (Go keeps static
	// boxes for values below 256).
	for cpu := 0; cpu < mixCPUs; cpu++ {
		m.e.AfterCall(m.draw()*Millisecond/1e6, m.ticked, cpu)
		m.e.AfterCall(m.draw()*400*Microsecond/1e6, m.completed, cpu)
	}
	m.e.AfterCall(0, m.arrived, nil)
	return m
}

// retime re-files cpu's pending completion at num/den of its remaining
// time, as an SMT sibling's change of state does.
func (m *mixLoad) retime(cpu int, num, den Time) {
	if h := m.done[cpu]; h.Pending() {
		now := m.e.Now()
		h.Move(now + (h.e.at-now)*num/den)
	}
}

// onComplete ends a run: the CPU's agent pass is due at once, and the
// sibling runs faster.
func (m *mixLoad) onComplete(arg any) {
	cpu := arg.(int)
	m.e.AfterCall(0, m.resched, cpu)
	m.retime(cpu^1, 4, 5)
}

// onResched switches the next thread in, which takes 0.1-2 µs.
func (m *mixLoad) onResched(cpu any) {
	m.e.AfterCall(100+m.draw()*1900/1e6, m.switched, cpu)
}

// onSwitch starts the CPU's next run, and slows or preempts its
// sibling's.
func (m *mixLoad) onSwitch(arg any) {
	cpu := arg.(int)
	d := 250*Microsecond + m.draw()*150*Microsecond/1e6
	if u := m.draw(); u < 40000 { // past the wheel's span
		d = 1100*Microsecond + u*20
	}
	m.done[cpu] = m.e.AfterCall(d, m.completed, cpu)
	if sib := m.done[cpu^1]; sib.Pending() && m.draw() < 50000 {
		sib.Cancel()
		m.e.AfterCall(0, m.resched, cpu^1)
		return
	}
	m.retime(cpu^1, 5, 4)
}

// onArrival wakes a worker and an idle CPU, and schedules the next
// request.
func (m *mixLoad) onArrival(any) {
	m.e.AfterCall(0, m.idle, nil)
	m.e.AfterCall(0, m.idle, nil)
	m.e.AfterCall(m.draw()*4800/1e6, m.arrived, nil)
}

// onTick re-arms the CPU's 1 ms timer tick.
func (m *mixLoad) onTick(cpu any) { m.e.AfterCall(Millisecond, m.ticked, cpu) }

// BenchmarkEngineMix measures one dispatch of the mixed load, with the
// schedules and cancels it triggers.
func BenchmarkEngineMix(b *testing.B) {
	m := newMixLoad()
	for i := 0; i < 100000; i++ { // reach the steady state
		m.e.step(MaxTime)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.e.step(MaxTime)
	}
}
