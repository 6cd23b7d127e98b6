package kernel

import (
	"runtime"
	"testing"

	"ghost/internal/hw"
	"ghost/internal/sim"
)

// A body panic other than the shutdown unwind reaches whoever drives the
// engine, at the simulated instant the body reached it, and can be
// recovered there.
func TestBodyPanicSurfaces(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	env.k.Spawn(SpawnOpts{Name: "bad", Class: env.cfs}, func(tc *TaskContext) {
		tc.Run(10 * sim.Microsecond)
		panic("body bug")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		env.eng.RunFor(sim.Millisecond)
		return nil
	}()
	if got != "body bug" {
		t.Fatalf("recovered %v, want the body's panic value", got)
	}
	if want := 10*sim.Microsecond + env.k.Cost().ContextSwitchCFS; env.eng.Now() != want {
		t.Fatalf("panic surfaced at %v, want %v", env.eng.Now(), want)
	}
}

// Kill and Shutdown unwind parked bodies synchronously, whatever they are
// parked in, and leave no goroutine behind.
func TestShutdownUnwindsBodies(t *testing.T) {
	base := runtime.NumGoroutine()
	env := newTestEnv(t, oneCPUTopo())
	unwound := 0
	spawn := func(name string, body ThreadFunc) *Thread {
		return env.k.Spawn(SpawnOpts{Name: name, Class: env.cfs}, func(tc *TaskContext) {
			defer func() { unwound++ }()
			body(tc)
			t.Errorf("%s: body returned instead of unwinding", name)
		})
	}
	running := spawn("running", func(tc *TaskContext) { tc.Run(sim.Second) })
	blocked := spawn("blocked", func(tc *TaskContext) { tc.Block() })
	fresh := spawn("fresh", func(tc *TaskContext) { tc.Run(sim.Millisecond) })

	env.k.Kill(fresh) // still queued: never scheduled
	if unwound != 1 || fresh.State() != StateDead {
		t.Fatalf("after Kill: unwound=%d state=%v, want 1 and dead", unwound, fresh.State())
	}
	env.eng.RunFor(100 * sim.Microsecond)
	if running.State() != StateRunning || blocked.State() != StateBlocked {
		t.Fatalf("states %v/%v, want running/blocked", running.State(), blocked.State())
	}
	if n := runtime.NumGoroutine(); n != base+2 {
		t.Fatalf("goroutines = %d with two parked bodies, want %d", n, base+2)
	}
	env.k.Shutdown()
	if unwound != 3 {
		t.Fatalf("unwound = %d after Shutdown, want 3", unwound)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("goroutines = %d after Shutdown, want baseline %d", n, base)
	}
}

// handoffLoop builds one CPU running one CFS thread that loops Run(1µs):
// every segment is one completion event plus one request from the body —
// a resume/park round trip with its coroutine, or, with steps, a call to
// its Steps machine. run(n) executes at least n more segments.
func handoffLoop(tb testing.TB, steps bool) (run func(n int)) {
	eng := sim.NewEngine()
	k := New(eng, oneCPUTopo(), hw.DefaultCostModel())
	cfs := NewCFS(k)
	tb.Cleanup(k.Shutdown)
	segments := 0
	segmentDone := func() { segments++ }
	body := func(tc *TaskContext) {
		for {
			tc.Run(sim.Microsecond)
			segmentDone()
		}
	}
	if steps {
		started := false
		body = Steps(func(*Thread) (Action, bool) {
			if started {
				segmentDone()
			}
			started = true
			return RunAction(sim.Microsecond), true
		})
	}
	k.Spawn(SpawnOpts{Name: "loop", Class: cfs}, body)
	return func(n int) {
		for target := segments + n; segments < target; {
			eng.RunFor(sim.Microsecond)
		}
	}
}

func benchmarkHandoff(b *testing.B, steps bool) {
	run := handoffLoop(b, steps)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkThreadHandoff measures the kernel's cost per run segment of a
// coroutine body thread (one op = one Run(1µs) segment).
func BenchmarkThreadHandoff(b *testing.B) { benchmarkHandoff(b, false) }

// BenchmarkThreadHandoffSteps is BenchmarkThreadHandoff with the body
// written as a Steps machine.
func BenchmarkThreadHandoffSteps(b *testing.B) { benchmarkHandoff(b, true) }

// The run-segment path is allocation-free once warm, for coroutine
// bodies and Steps machines alike.
func TestThreadHandoffAllocFree(t *testing.T) {
	for _, steps := range []bool{false, true} {
		run := handoffLoop(t, steps)
		run(1000)
		if avg := testing.AllocsPerRun(100, func() { run(100) }); avg != 0 {
			t.Fatalf("steps=%v: 100 run segments allocate %.1f times, want 0", steps, avg)
		}
	}
}
