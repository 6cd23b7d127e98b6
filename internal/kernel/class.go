package kernel

import (
	"ghost/internal/hw"
	"ghost/internal/sim"
)

// EnqueueReason tells a scheduling class why a thread is entering its
// runqueue. The ghOSt class translates these into kernel-to-agent
// messages (THREAD_WAKEUP, THREAD_PREEMPTED, THREAD_YIELD).
type EnqueueReason int

const (
	// EnqWake: the thread just became runnable (wakeup or creation).
	EnqWake EnqueueReason = iota
	// EnqPreempt: the thread was running and lost its CPU to a higher
	// priority thread.
	EnqPreempt
	// EnqYield: the thread voluntarily yielded its CPU.
	EnqYield
	// EnqClassChange: the thread moved into this class while runnable.
	EnqClassChange
)

// DequeueReason tells a scheduling class why a thread is leaving.
type DequeueReason int

const (
	// DeqBlock: the thread blocked.
	DeqBlock DequeueReason = iota
	// DeqDead: the thread exited.
	DeqDead
	// DeqClassChange: the thread is moving to another class.
	DeqClassChange
)

// Class is a kernel scheduling class. Classes form a strict priority
// hierarchy (higher Priority preempts lower), mirroring Linux's
// sched_class chain. The ghOSt reproduction registers, from high to low:
// the agent class, MicroQuanta (when used), CFS, and the ghOSt class.
//
// All methods run on the simulation's single thread of control.
type Class interface {
	// Name identifies the class in traces.
	Name() string
	// Priority orders classes; higher preempts lower.
	Priority() int
	// SwitchInCost is the context-switch dead time charged when a thread
	// of this class is switched onto a CPU.
	SwitchInCost() sim.Duration

	// ThreadAttached is called once when a thread joins the class (at
	// spawn or class change), before any Enqueue.
	ThreadAttached(t *Thread)
	// ThreadDetached is called once when a thread leaves the class.
	ThreadDetached(t *Thread, r DequeueReason)

	// Enqueue makes a runnable thread eligible to be picked. cpu is the
	// placement hint chosen by SelectCPU (for wakes) or the CPU the
	// thread just ran on (for preempt/yield requeues).
	Enqueue(t *Thread, cpu hw.CPUID, r EnqueueReason)
	// Dequeue is called when a thread of this class stops being
	// runnable (block, death, class change), whether it was queued or
	// running at the time.
	Dequeue(t *Thread, r DequeueReason)

	// Eligible reports whether running, a thread of this class currently
	// on c, may keep the CPU. Returning false (e.g. MicroQuanta
	// throttling) forces the kernel to take the CPU away.
	Eligible(c *CPU, running *Thread) bool

	// Queued reports whether the class has at least one thread eligible
	// to run on c right now.
	Queued(c *CPU) bool
	// PickNext selects the thread to run on c. prev, when non-nil, is a
	// thread of this class currently running on c; the class returns
	// prev to keep it running, or another thread — in which case the
	// class must requeue prev itself (with EnqPreempt semantics).
	// Returning nil leaves the CPU to lower classes.
	PickNext(c *CPU, prev *Thread) *Thread

	// SelectCPU chooses a placement for a waking thread. Must return a
	// CPU in the thread's affinity mask.
	SelectCPU(t *Thread) hw.CPUID
	// WantsPreempt reports whether enqueueing incoming should preempt
	// curr, a running thread of the same class.
	WantsPreempt(c *CPU, curr, incoming *Thread) bool

	// Tick is the periodic timer tick while t runs on c.
	Tick(c *CPU, t *Thread)
}

// Priorities of the built-in classes. Matches the paper's hierarchy
// (§3.3-3.4): agents are the highest priority in the machine; CFS is the
// default class; ghOSt sits below CFS so that any CFS thread preempts
// ghOSt-managed threads.
const (
	PrioAgent       = 100
	PrioMicroQuanta = 80
	PrioCFS         = 50
	PrioGhost       = 10
)

// placementAudit is nil outside tests. A test installs one to see every
// mask-based placement decision, with the answer it gave, and recompute
// it with the per-CPU scan it replaced.
var placementAudit interface {
	steal(c *CFS, cpu *CPU, got *Thread)
	cfsCPU(c *CFS, t *Thread, got hw.CPUID)
	mqCPU(m *MicroQuanta, t *Thread, got hw.CPUID)
}
