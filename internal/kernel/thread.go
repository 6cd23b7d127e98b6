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
// completes, and when a Block consumes a pending wake. Each call does the
// thread's zero-time work up to its next request and returns that
// request (RunAction, BlockAction, Thread.SleepAction,
// WaitQueue.WaitAction, Mailbox.TryGetOrWait), or false to exit. Like
// Run(0), a zero-length RunAction does not yield: step is called again at
// once.
//
// The body only installs step and returns; its short-lived coroutine
// ends inside Spawn and the thread keeps no coroutine afterwards. A body
// may call the returned body last, after TaskContext calls of its own.
func Steps(step func(*Thread) (Action, bool)) ThreadFunc {
	return func(tc *TaskContext) { tc.t.steps = step }
}

// Stepper is the callback-driven execution alternative used for scheduler
// agents and dataplane pollers: when the thread is on CPU with no pending
// work, the kernel invokes Step, which performs instantaneous actions,
// returns the CPU time those actions cost, and a disposition for what the
// thread does once that cost has been charged.
type Stepper interface {
	Step(now sim.Time) (cost sim.Duration, disp Disposition)
}

// Disposition tells the kernel what a Stepper thread does after its step
// cost has been charged.
type Disposition int

const (
	// DispSpin keeps the thread on CPU, busy-polling; Step is invoked
	// again when the thread is poked.
	DispSpin Disposition = iota
	// DispBlock blocks the thread until Wake.
	DispBlock
	// DispYield puts the thread at the back of its class's queue.
	DispYield
	// DispAgain re-invokes Step as soon as the cost has elapsed.
	DispAgain
	// DispExit terminates the thread.
	DispExit
)

// actionKind is what an Action asks of the kernel.
type actionKind int

const (
	actNone actionKind = iota
	actRun
	actBlock
	actYield
	actExit
	actSpinIdle    // stepper: stay on CPU, wait for a poke
	actStepPending // stepper: Step must run next time the thread is on CPU
)

// Action is a request from a thread's execution to the kernel: run for a
// while, block, yield or exit. Coroutine bodies make requests through
// their TaskContext; Steps machines return them.
type Action struct {
	kind actionKind
	dur  sim.Duration
	// then, when set, is invoked in place of fetching the next action
	// once the run completes. Used by stepper dispositions.
	then func()
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

	// Execution machinery: a body's coroutine (coro.go), a Steps
	// machine, or a stepper. A machine takes over once next, the
	// coroutine of the body that installed it, has ended.
	next    func() (Action, bool)
	yield   func(Action) bool
	stop    func()
	steps   func(*Thread) (Action, bool)
	stepper Stepper

	curKind     actionKind
	pendingWork sim.Duration // remaining CPU work of the current action
	onWorkDone  func()

	// afterAction and afterFn are nextAction's reusable continuation: a
	// thread has at most one pending post-run action, so one closure per
	// thread (allocated lazily on first use) replaces one per run
	// segment — the top allocation site in CPU-bound sweeps.
	afterAction Action
	afterFn     func()

	wakePending bool // Wake arrived while not blocked
	poked       bool // poke arrived for a stepper thread

	// Accounting.
	cpuTime     sim.Duration // total on-CPU wall time
	wakeTime    sim.Time     // when the thread last became runnable
	runnableAt  sim.Time
	schedDelay  sim.Duration // cumulative wake-to-run latency
	switchCount uint64

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

// ensureAfterFn returns the thread's reusable post-run continuation,
// creating it on first use. Restore-only: the hot path (nextAction)
// creates the identical closure inline so the literal stays out of any
// function reachable from the 0-alloc wake path.
func (t *Thread) ensureAfterFn() func() {
	if t.afterFn == nil {
		t.afterFn = func() { t.k.applyAction(t, t.afterAction) }
	}
	return t.afterFn
}

// TID returns the thread id.
func (t *Thread) TID() TID { return t.tid }

// Name returns the thread's human-readable name.
func (t *Thread) Name() string { return t.name }

// State returns the thread's current run state.
func (t *Thread) State() State { return t.state }

// Nice returns the thread's nice value (CFS weighting, -20..19).
func (t *Thread) Nice() int { return t.nice }

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

// SchedDelay returns the cumulative runnable-to-running latency.
func (t *Thread) SchedDelay() sim.Duration { return t.schedDelay }

// Switches returns the number of times the thread was switched in.
func (t *Thread) Switches() uint64 { return t.switchCount }

// WakeTime returns when the thread last became runnable.
func (t *Thread) WakeTime() sim.Time { return t.wakeTime }

func (t *Thread) String() string {
	return fmt.Sprintf("T%d(%s,%s)", t.tid, t.name, t.state)
}

// errShutdown is panicked into a parked body when its thread is reaped
// or the kernel shuts down, so the body unwinds and its coroutine ends.
type errShutdown struct{}

// submit hands the next action to the kernel and parks the body until
// the action completes. Called from the thread body only.
func (t *Thread) submit(a Action) {
	if !t.yield(a) {
		panic(errShutdown{})
	}
}

// nextAction fetches the thread's next action: for body threads it
// resumes the body until its next request (a returned body exits, unless
// it installed a Steps machine); for stepper threads it invokes Step and
// translates the disposition.
func (t *Thread) nextAction() Action {
	if t.stepper == nil {
		if t.next != nil {
			if a, ok := t.next(); ok {
				return a
			}
			if t.steps == nil {
				return Action{kind: actExit}
			}
			// The body returned with a Steps machine installed, so its
			// coroutine has ended and there is nothing left to unwind:
			// from now on the machine is the thread's execution.
			t.next, t.yield, t.stop = nil, nil, nil
		}
		return t.stepMachine()
	}
	t.poked = false
	cost, disp := t.stepper.Step(t.k.eng.Now())
	if cost < 0 {
		panic("kernel: stepper returned negative cost")
	}
	var after Action
	switch disp {
	case DispSpin:
		after = Action{kind: actSpinIdle}
	case DispBlock:
		after = Action{kind: actBlock}
	case DispYield:
		after = Action{kind: actYield}
	case DispAgain:
		if cost == 0 {
			panic("kernel: DispAgain with zero cost would livelock")
		}
		return Action{kind: actRun, dur: cost}
	case DispExit:
		after = Action{kind: actExit}
	default:
		panic("kernel: unknown disposition")
	}
	if cost == 0 {
		return after
	}
	if t.afterFn == nil {
		t.afterFn = func() { t.k.applyAction(t, t.afterAction) }
	}
	t.afterAction = after
	return Action{kind: actRun, dur: cost, then: t.afterFn}
}

// errStepsAction is the panic value of a Steps machine that returns an
// action the vocabulary cannot build, such as the zero Action.
var errStepsAction = errors.New("kernel: Steps machine returned an action other than Run or Block")

// stepMachine asks the thread's Steps machine for its next request,
// skipping zero-length runs as TaskContext.Run(0) does.
func (t *Thread) stepMachine() Action {
	for {
		a, ok := t.steps(t)
		switch {
		case !ok:
			return Action{kind: actExit}
		case a.kind == actRun && a.dur == 0:
			continue
		case a.kind != actRun && a.kind != actBlock:
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

// SleepAction arms a wakeup d from now and returns the Block that waits
// for it: TaskContext.Sleep(d) for a Steps machine.
func (t *Thread) SleepAction(d sim.Duration) Action {
	t.k.eng.AfterCall(d, t.k.wakeFn, t)
	return BlockAction()
}

// TaskContext is the interface a simulated thread body uses to interact
// with the kernel. All methods must be called only from inside the
// thread's own ThreadFunc.
type TaskContext struct {
	t *Thread
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
		tc.t.submit(a)
	}
}

// Block suspends the thread until another thread calls Wake on it. If a
// Wake arrived since the last Block, it returns immediately.
func (tc *TaskContext) Block() {
	tc.t.submit(BlockAction())
}

// Sleep blocks the thread for d nanoseconds of simulated time.
func (tc *TaskContext) Sleep(d sim.Duration) {
	tc.t.submit(tc.t.SleepAction(d))
}

// Yield relinquishes the CPU, moving the thread to the back of its
// class's runqueue.
func (tc *TaskContext) Yield() {
	tc.t.submit(Action{kind: actYield})
}

// SetAffinity restricts the thread to the given CPUs. Takes effect on the
// next scheduling decision; notifies the scheduling class (for ghOSt this
// produces a THREAD_AFFINITY message).
func (tc *TaskContext) SetAffinity(m Mask) {
	tc.t.k.SetAffinity(tc.t, m)
}

// SetNice adjusts the thread's nice value.
func (tc *TaskContext) SetNice(n int) {
	tc.t.k.SetNice(tc.t, n)
}

// TID returns the thread's id.
func (tc *TaskContext) TID() TID { return tc.t.tid }

// Kernel returns the owning kernel, for workload code that needs to wake
// other threads or inspect time.
func (tc *TaskContext) Kernel() *Kernel { return tc.t.k }
