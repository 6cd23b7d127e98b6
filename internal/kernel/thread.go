package kernel

import (
	"errors"
	"fmt"

	"ghost/internal/hw"
	"ghost/internal/sim"
)

// TID identifies a kernel thread.
type TID int

// State is a thread's run state.
type State int

// Thread run states.
const (
	StateNew State = iota
	StateRunnable
	StateRunning
	StateBlocked
	StateDead
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// ThreadFunc is a simulated thread body. It runs as a coroutine in lock
// step with the goroutine driving the engine, and interacts with the
// simulated kernel exclusively through the TaskContext; plain Go code
// between TaskContext calls executes in zero simulated time. A body built
// by Steps instead hands the thread to an explicit state machine.
type ThreadFunc func(tc *TaskContext)

// Steps returns a body that runs the thread as the state machine step
// instead of a coroutine. The kernel calls step wherever it would resume
// a coroutine body: at Spawn, when a blocked thread is woken, when a run
// completes, when a Block consumes a pending wake, after a yield, and
// when it steps an on-CPU thread (StepOnCPUAction, SpinAction). Each
// call does the thread's zero-time work up to its next request and
// returns that request (RunAction, BlockAction, YieldAction,
// Thread.SleepAction, WaitQueue.WaitAction, Mailbox.TryGetOrWait,
// SpinAction, StepOnCPUAction), or false to exit. Like Run(0), a
// zero-length RunAction does not yield: step is called again at once.
// Thread.Ran tells step whether the request that just finished was a
// Run, so a machine can pick its next request from the kernel's record
// alone; that is how a restored machine resumes where its thread was
// parked.
//
// The body only installs step and returns; its short-lived coroutine
// ends inside Spawn and the thread keeps no coroutine afterwards. A body
// may call the returned body last, after TaskContext calls of its own.
func Steps(step func(*Thread) (Action, bool)) ThreadFunc {
	return func(tc *TaskContext) { tc.steps = step }
}

// actionKind is what an Action asks of the kernel. The values are
// serialized (ThreadRec.CurKind, Charge.State).
type actionKind int

const (
	actNone actionKind = iota
	actRun
	actBlock
	actYield
	actExit
	actSpinIdle    // stay on CPU until poked, then step
	actStepPending // step once on a CPU
)

// Action is a request from a thread's execution to the kernel: run for a
// while, block, yield, spin or step on CPU. Coroutine bodies make
// requests through their TaskContext; Steps machines return them.
type Action struct {
	kind actionKind
	dur  sim.Duration
}

// Thread is a simulated kernel thread.
type Thread struct {
	tid   TID
	name  string
	k     *Kernel
	state State

	class    Class
	nice     int
	affinity Mask

	cpu       *CPU     // CPU currently running on (nil unless Running)
	targetCPU hw.CPUID // placement chosen at wake; queue key for per-CPU classes
	lastCPU   hw.CPUID // where the thread last ran, NoCPU if never

	// step is the thread's one execution seam: it returns the thread's
	// next request, or false to exit. It is a Steps machine, or a
	// machine over the body's coroutine (coro.go) until the body
	// installs one; stop unwinds a parked coroutine, nil without one.
	step func(*Thread) (Action, bool)
	stop func()

	curKind     actionKind
	pendingWork sim.Duration // remaining CPU work of the current action

	wakePending bool // Wake arrived while not blocked
	poked       bool // Poke arrived since the thread's last step

	// Accounting.
	cpuTime  sim.Duration // total on-CPU wall time
	wakeTime sim.Time     // when the thread last became runnable

	// Per-class state.
	cfs cfsThread
	mq  mqThread

	// Ghost is opaque per-thread state owned by the ghOSt scheduling
	// class (internal/ghostcore). The kernel never inspects it.
	Ghost any

	// Tag is opaque workload-owned state (e.g. which VM a vCPU belongs
	// to); the kernel never inspects it.
	Tag any

	// body, when set, describes this thread's ThreadFunc as a registered,
	// resumable body (internal/snap): a kind in the body registry plus the
	// arguments and private random stream needed to rebuild it. Threads
	// without a body descriptor (ad-hoc closures) cannot be snapshotted.
	body *BodyDesc
}

// BodyDesc describes a registered, resumable thread body for
// snapshot/restore. Kind names a factory in the snapshot body registry;
// Args are the body's construction parameters; Rand, when non-nil, is the
// body's private random stream (its state rides in the snapshot so the
// resumed body continues the same sequence of draws).
type BodyDesc struct {
	Kind string
	// Key names the owning snapshot component (e.g. the worker pool a
	// pool-worker body belongs to); empty for standalone bodies.
	Key  string
	Args []int64
	Rand *sim.Rand
}

// SetBodyDesc attaches a resumable-body descriptor to the thread; spawn
// sites whose bodies are registered in the snapshot body registry call
// this right after Spawn.
func (t *Thread) SetBodyDesc(d *BodyDesc) { t.body = d }

// BodyDesc returns the thread's resumable-body descriptor, nil if none.
func (t *Thread) BodyDesc() *BodyDesc { return t.body }

// TID returns the thread id.
func (t *Thread) TID() TID { return t.tid }

// Ran reports whether the thread's latest request is a Run. Inside the
// thread's step it is the request that just finished (false at Spawn,
// and a zero-length Run is no request); between events it is the request
// the thread is parked in.
func (t *Thread) Ran() bool { return t.curKind == actRun }

// Name returns the thread's human-readable name.
func (t *Thread) Name() string { return t.name }

// State returns the thread's current run state.
func (t *Thread) State() State { return t.state }

// Affinity returns the thread's CPU affinity mask.
func (t *Thread) Affinity() Mask { return t.affinity }

// LastCPU returns where the thread last ran, hw.NoCPU if never scheduled.
func (t *Thread) LastCPU() hw.CPUID { return t.lastCPU }

// OnCPU returns the CPU the thread is running on, or hw.NoCPU.
func (t *Thread) OnCPU() hw.CPUID {
	if t.cpu == nil {
		return hw.NoCPU
	}
	return t.cpu.ID
}

// Class returns the thread's scheduling class.
func (t *Thread) Class() Class { return t.class }

// CPUTime returns total simulated wall time spent on CPU, accounted at
// run-segment boundaries.
func (t *Thread) CPUTime() sim.Duration { return t.cpuTime }

// RuntimeNow returns CPUTime including the currently executing segment.
func (t *Thread) RuntimeNow() sim.Duration {
	rt := t.cpuTime
	if t.state == StateRunning && t.cpu != nil && !t.cpu.switching {
		rt += t.k.eng.Now() - t.cpu.segStart
	}
	return rt
}

// WakeTime returns when the thread last became runnable.
func (t *Thread) WakeTime() sim.Time { return t.wakeTime }

func (t *Thread) String() string {
	return fmt.Sprintf("T%d(%s,%s)", t.tid, t.name, t.state)
}

// errShutdown is panicked into a parked body when its thread is reaped
// or the kernel shuts down, so the body unwinds and its coroutine ends.
type errShutdown struct{}

// errStepsAction is the panic value of a thread step that returns an
// action the vocabulary cannot build, such as the zero Action.
var errStepsAction = errors.New("kernel: thread step returned an action outside the vocabulary")

// nextAction asks the thread's step for its next request, skipping
// zero-length runs as TaskContext.Run(0) does.
func (t *Thread) nextAction() Action {
	for {
		a, ok := t.step(t)
		switch {
		case !ok:
			return Action{kind: actExit}
		case a.kind == actRun && a.dur == 0:
			continue
		case a.kind == actNone || a.kind == actExit:
			panic(errStepsAction)
		}
		return a
	}
}

// RunAction requests d of CPU time, like TaskContext.Run(d).
func RunAction(d sim.Duration) Action {
	if d < 0 {
		panic("kernel: Run with negative duration")
	}
	return Action{kind: actRun, dur: d}
}

// BlockAction suspends the thread until Wake, like TaskContext.Block; a
// Wake that arrived since the last Block completes it at once.
func BlockAction() Action { return Action{kind: actBlock} }

// YieldAction gives up the CPU, like TaskContext.Yield: the thread goes
// to the back of its class's runqueue and is stepped again at once.
func YieldAction() Action { return Action{kind: actYield} }

// SleepAction arms a wakeup d from now and returns the Block that waits
// for it: TaskContext.Sleep(d) for a Steps machine.
func (t *Thread) SleepAction(d sim.Duration) Action {
	t.k.eng.AfterCall(d, t.k.wakeFn, t)
	return BlockAction()
}

// SpinAction keeps the thread on its CPU, busy-polling without a
// completion event, until Poke: then the kernel steps it again. A
// runnable thread starts spinning once it is switched in.
func SpinAction() Action { return Action{kind: actSpinIdle} }

// StepOnCPUAction asks the kernel to call the thread's step again once
// the thread is on a CPU: at once when it is running, else at its next
// switch-in. A new thread becomes runnable first.
func StepOnCPUAction() Action { return Action{kind: actStepPending} }

// Charge is the pending action of a polling Steps machine, such as a
// ghOSt agent or a dataplane spinner: each of its steps costs CPU time
// and then blocks, spins until poked, or steps again. Then charges the
// cost and keeps what follows it; Next hands that out at the machine's
// next call. The zero value has nothing pending.
type Charge struct{ after Action }

// Next returns the action pending for the machine's call, if any. A new
// thread starts blocked, so Wake starts it, and a Block is followed by
// StepOnCPUAction, so a woken machine steps once it is on a CPU, not at
// Wake. With nothing pending the machine takes a step, which consumes
// the pokes that arrived before it.
func (c *Charge) Next(t *Thread) (Action, bool) {
	if t.state == StateNew {
		c.after = BlockAction()
	} else if c.after.kind == actNone {
		t.poked = false
		return Action{}, false
	}
	return c.pop(), true
}

// Then returns the action that charges a step's cost before after:
// BlockAction, SpinAction, or StepOnCPUAction to step again as soon as
// the cost has elapsed.
func (c *Charge) Then(cost sim.Duration, after Action) Action {
	if cost < 0 {
		panic("kernel: step returned negative cost")
	}
	if after.kind == actStepPending {
		if cost == 0 {
			panic("kernel: stepping again at zero cost would livelock")
		}
		after = Action{}
	}
	c.after = after
	if cost > 0 {
		return RunAction(cost)
	}
	return c.pop()
}

func (c *Charge) pop() Action {
	a := c.after
	c.after = Action{}
	if a.kind == actBlock {
		c.after = StepOnCPUAction()
	}
	return a
}

// State returns the pending action's kind for a snapshot.
func (c *Charge) State() int { return int(c.after.kind) }

// SetState restores a pending action saved by State.
func (c *Charge) SetState(kind int) error {
	switch k := actionKind(kind); k {
	case actNone, actBlock, actSpinIdle, actStepPending:
		c.after = Action{kind: k}
		return nil
	}
	return fmt.Errorf("action kind %d cannot follow a step", kind)
}

// TaskContext is the interface a simulated thread body uses to interact
// with the kernel. All methods must be called only from inside the
// thread's own ThreadFunc.
type TaskContext struct {
	t     *Thread
	yield func(Action) bool
	steps func(*Thread) (Action, bool) // installed by a Steps body
}

// submit hands the next action to the kernel and parks the body until
// the action completes.
func (tc *TaskContext) submit(a Action) {
	if !tc.yield(a) {
		panic(errShutdown{})
	}
}

// Thread returns the underlying thread.
func (tc *TaskContext) Thread() *Thread { return tc.t }

// Now returns the current simulated time.
func (tc *TaskContext) Now() sim.Time { return tc.t.k.eng.Now() }

// Run consumes d nanoseconds of CPU time. The call returns once the work
// has been executed; with preemptions or SMT contention the elapsed
// simulated time can be much larger than d.
func (tc *TaskContext) Run(d sim.Duration) {
	if a := RunAction(d); d > 0 {
		tc.submit(a)
	}
}

// Block suspends the thread until another thread calls Wake on it. If a
// Wake arrived since the last Block, it returns immediately.
func (tc *TaskContext) Block() {
	tc.submit(BlockAction())
}

// Sleep blocks the thread for d nanoseconds of simulated time.
func (tc *TaskContext) Sleep(d sim.Duration) {
	tc.submit(tc.t.SleepAction(d))
}

// Yield relinquishes the CPU, moving the thread to the back of its
// class's runqueue.
//
//ghostlint:root sched_yield, the source of the THREAD_YIELD message of the paper's Table 1; bundled bodies yield through YieldAction
func (tc *TaskContext) Yield() {
	tc.submit(YieldAction())
}

// Kernel returns the owning kernel, for workload code that needs to wake
// other threads or inspect time.
func (tc *TaskContext) Kernel() *Kernel { return tc.t.k }
