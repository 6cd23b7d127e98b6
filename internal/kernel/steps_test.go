package kernel

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ghost/internal/sim"
)

// stepsOutcome is what runStepsScript observed: Trace is the run's
// switch, idle and wake hook calls, one per line.
type stepsOutcome struct {
	Trace         []string
	Executed, Seq uint64
	Threads       []string
}

const (
	scriptItems     = 30
	scriptPerWorker = 12
)

func scriptItem(i int) sim.Duration { return sim.Duration(i%4) * sim.Microsecond }

// runStepsScript runs a small machine with every thread body a
// coroutine, or with steps, every body a Steps machine. Two workers
// share a mailbox fed by a producer: they Run each item (some of zero
// length), then in turn Block on a pending self-Wake, Sleep and Yield,
// and exit after twelve items. A victim is killed mid-Run, and at the end
// the producer is parked in Block and a spinner in Run when the kernel
// shuts down.
func runStepsScript(t *testing.T, steps bool) stepsOutcome {
	env := newTestEnv(t, smallTopo())
	var out stepsOutcome
	log := func(format string, a ...any) {
		out.Trace = append(out.Trace, fmt.Sprintf("%v ", env.k.Now())+fmt.Sprintf(format, a...))
	}
	env.k.AddSwitchHook(func(c *CPU, th *Thread) { log("cpu%d runs %v", c.ID, th) })
	env.k.AddIdleHook(func(c *CPU) { log("cpu%d idles", c.ID) })
	env.k.AddWakeHook(func(c *CPU, th *Thread) { log("%v wakes on cpu%d", th, c.ID) })
	mb := NewMailbox[sim.Duration](env.k)
	spawn := func(name string, body ThreadFunc) *Thread {
		return env.k.Spawn(SpawnOpts{Name: name, Class: env.cfs}, body)
	}

	var threads []*Thread
	for w := 0; w < 2; w++ {
		var body ThreadFunc = func(tc *TaskContext) {
			for i := 0; i < scriptPerWorker; i++ {
				tc.Run(mb.Get(tc))
				switch i % 3 {
				case 0:
					tc.Kernel().Wake(tc.Thread())
					tc.Block()
				case 1:
					tc.Sleep(3 * sim.Microsecond)
				default:
					tc.Yield()
				}
			}
		}
		if steps {
			sw := &scriptWorker{mb: mb}
			body = Steps(sw.step)
		}
		threads = append(threads, spawn(fmt.Sprintf("worker%d", w), body))
	}

	var producer ThreadFunc = func(tc *TaskContext) {
		for i := 0; i < scriptItems; i++ {
			mb.Put(scriptItem(i))
			tc.Run(0)
			tc.Sleep(2 * sim.Microsecond)
			tc.Run(sim.Microsecond)
		}
		for {
			tc.Block()
		}
	}
	victim := func(tc *TaskContext) { tc.Run(sim.Millisecond) }
	spinner := func(tc *TaskContext) {
		for {
			tc.Run(7 * sim.Microsecond)
		}
	}
	if steps {
		sp := &scriptProducer{mb: mb}
		producer = Steps(sp.step)
		ran := false
		victim = Steps(func(*Thread) (Action, bool) {
			if ran {
				return Action{}, false
			}
			ran = true
			return RunAction(sim.Millisecond), true
		})
		spinner = Steps(func(*Thread) (Action, bool) { return RunAction(7 * sim.Microsecond), true })
	}
	threads = append(threads, spawn("producer", producer))
	v := spawn("victim", victim)
	threads = append(threads, v, spawn("spinner", spinner))
	env.eng.At(40*sim.Microsecond, func() { env.k.Kill(v) })

	env.eng.RunFor(300 * sim.Microsecond)
	for i, want := range []State{StateDead, StateDead, StateBlocked, StateDead} {
		if got := threads[i].State(); got != want {
			t.Fatalf("steps=%v: %v is %v, want %v", steps, threads[i], got, want)
		}
	}
	if threads[4].State() == StateBlocked {
		t.Fatalf("steps=%v: spinner blocked", steps)
	}
	for _, th := range threads {
		out.Threads = append(out.Threads, fmt.Sprintf("%v cpu=%v woke=%v", th, th.CPUTime(), th.WakeTime()))
	}
	out.Executed, out.Seq = env.eng.Executed, env.eng.Seq()
	env.k.Shutdown()
	return out
}

// scriptWorker is the worker body of stepsScript as a machine.
type scriptWorker struct {
	mb      *Mailbox[sim.Duration]
	i       int
	running bool // an item's Run was requested; its follow-up is next
}

func (w *scriptWorker) step(t *Thread) (Action, bool) {
	if w.running {
		w.running = false
		w.i++
		switch (w.i - 1) % 3 {
		case 0:
			t.k.Wake(t)
			return BlockAction(), true
		case 1:
			return t.SleepAction(3 * sim.Microsecond), true
		default:
			return YieldAction(), true
		}
	}
	if w.i == scriptPerWorker {
		return Action{}, false
	}
	d, wait, ok := w.mb.TryGetOrWait(t)
	if !ok {
		return wait, true
	}
	w.running = true
	return RunAction(d), true
}

// scriptProducer is the producer body of stepsScript as a machine.
type scriptProducer struct {
	mb    *Mailbox[sim.Duration]
	i, pc int
}

func (p *scriptProducer) step(t *Thread) (Action, bool) {
	switch p.pc {
	case 0:
		if p.i == scriptItems {
			return BlockAction(), true
		}
		p.mb.Put(scriptItem(p.i))
		p.pc = 1
		return RunAction(0), true
	case 1:
		p.pc = 2
		return t.SleepAction(2 * sim.Microsecond), true
	default:
		p.pc, p.i = 0, p.i+1
		return RunAction(sim.Microsecond), true
	}
}

// A Steps machine is asked for its next action at exactly the points a
// coroutine body is resumed, so the same script written both ways
// produces the same trace, event count, sequence numbers and per-thread
// accounting.
func TestStepsMatchesCoroutine(t *testing.T) {
	coro := runStepsScript(t, false)
	steps := runStepsScript(t, true)
	if len(coro.Trace) < 100 {
		t.Fatalf("script traced only %d lines", len(coro.Trace))
	}
	if !reflect.DeepEqual(coro, steps) {
		for i := range coro.Trace {
			if i >= len(steps.Trace) || coro.Trace[i] != steps.Trace[i] {
				t.Errorf("first trace difference at line %d: coroutine %s", i, coro.Trace[i])
				break
			}
		}
		t.Fatalf("coroutine and Steps runs differ:\ncoroutine: %d/%d %v\nsteps:     %d/%d %v",
			coro.Executed, coro.Seq, coro.Threads, steps.Executed, steps.Seq, steps.Threads)
	}
}

// A machine's panic reaches whoever drives the engine, at the simulated
// instant the machine raised it, as TestBodyPanicSurfaces shows for
// coroutine bodies.
func TestStepsPanicSurfaces(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	ran := false
	env.k.Spawn(SpawnOpts{Name: "bad", Class: env.cfs}, Steps(func(*Thread) (Action, bool) {
		if ran {
			panic("machine bug")
		}
		ran = true
		return RunAction(10 * sim.Microsecond), true
	}))
	got := func() (r any) {
		defer func() { r = recover() }()
		env.eng.RunFor(sim.Millisecond)
		return nil
	}()
	if got != "machine bug" {
		t.Fatalf("recovered %v, want the machine's panic value", got)
	}
	if want := 10*sim.Microsecond + env.k.Cost().ContextSwitchCFS; env.eng.Now() != want {
		t.Fatalf("panic surfaced at %v, want %v", env.eng.Now(), want)
	}
}

// A machine that returns an action the vocabulary cannot build (the zero
// Action) panics at once instead of leaving its thread stranded.
func TestStepsRejectZeroAction(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	got := func() (r any) {
		defer func() { r = recover() }()
		env.k.Spawn(SpawnOpts{Name: "bad", Class: env.cfs}, Steps(func(*Thread) (Action, bool) { return Action{}, true }))
		return nil
	}()
	if got != errStepsAction {
		t.Fatalf("Spawn recovered %v, want %v", got, errStepsAction)
	}
}

// A snapshot carries only Steps machines: a thread that has a body
// descriptor but still runs on a coroutine is refused, while the same
// body as a machine saves.
func TestSaveRefusesCoroutineBody(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	coro := env.k.Spawn(SpawnOpts{Name: "coro", Class: env.cfs}, func(tc *TaskContext) {
		for {
			tc.Run(10 * sim.Microsecond)
		}
	})
	coro.SetBodyDesc(&BodyDesc{Kind: "test.spin"})
	env.eng.RunFor(25 * sim.Microsecond)
	_, err := env.k.SaveImage()
	if err == nil || !strings.Contains(err.Error(), "runs on a coroutine") {
		t.Fatalf("SaveImage with a coroutine body = %v, want a coroutine error", err)
	}

	env.k.Kill(coro)
	machine := env.k.Spawn(SpawnOpts{Name: "machine", Class: env.cfs}, Steps(func(*Thread) (Action, bool) {
		return RunAction(10 * sim.Microsecond), true
	}))
	machine.SetBodyDesc(&BodyDesc{Kind: "test.spin"})
	env.eng.RunFor(25 * sim.Microsecond)
	if _, err := env.k.SaveImage(); err != nil {
		t.Fatalf("SaveImage with a Steps body: %v", err)
	}
}
