package kernel

import (
	"ghost/internal/hw"
	"ghost/internal/sim"
)

// CPU is a logical CPU of the simulated machine. It executes at most one
// thread; execution speed is dilated while its SMT sibling is busy.
type CPU struct {
	ID   hw.CPUID
	Info *hw.CPU

	k    *Kernel
	sib  *CPU // the other hyperthread of this core, nil without SMT
	curr *Thread

	switching      bool // in context-switch dead time
	needResched    bool
	reschedPending bool

	// Burn state for the current run segment. The segment burns work
	// while its completion is pending.
	segStart   sim.Time
	speed      float64 // work-units per wall-ns for the current segment
	completion sim.Event

	// accBusy tracks the busy/idle edges that change the SMT sibling's
	// speed (smtChanged).
	accBusy bool
}

// Curr returns the thread currently on this CPU (nil when idle). During a
// context switch the incoming thread is already reported.
func (c *CPU) Curr() *Thread { return c.curr }

// Idle reports whether the CPU has no thread.
func (c *CPU) Idle() bool { return c.curr == nil && !c.switching }

// Stuck reports whether the CPU's current thread is Running a Run request
// with no completion pending, outside a context switch: work that can
// never end, since only the completion asks the thread for its next
// request. The kernel never leaves a CPU so between events; invariant
// checks assert it.
func (c *CPU) Stuck() bool {
	return c.curr != nil && !c.switching && c.curr.curKind == actRun && !c.completion.Pending()
}

// setCurr and setSwitching are the only writers of curr and switching
// outside snapshot restore; both keep the kernel's idle mask in step.
func (c *CPU) setCurr(t *Thread) { c.curr = t; c.syncIdle() }

func (c *CPU) setSwitching(on bool) { c.switching = on; c.syncIdle() }

// syncIdle re-derives c's bit of the kernel's idle mask. It runs on
// every context switch, so it uses the inlinable SetTo (c.ID is always
// in range, unlike Mask.Set's arguments).
func (c *CPU) syncIdle() { c.k.idle.SetTo(c.ID, c.Idle()) }

// setReschedPending is the only writer of reschedPending, snapshot
// restore included; it keeps the kernel's pending mask in step.
func (c *CPU) setReschedPending(on bool) {
	c.reschedPending = on
	c.k.pending.SetTo(c.ID, on)
}

// FreeForPlacement reports whether the CPU is idle and has no pending
// scheduling pass that might already have claimed it. Wake placement uses
// this to spread simultaneous wakeups instead of piling them on one CPU.
func (c *CPU) FreeForPlacement() bool { return c.Idle() && !c.reschedPending }

// accountBusy marks the start of a busy period.
func (c *CPU) accountBusy() {
	if !c.accBusy {
		c.accBusy = true
		c.smtChanged()
	}
}

// accountIdle closes the current busy period.
func (c *CPU) accountIdle() {
	if c.accBusy {
		c.accBusy = false
		c.smtChanged()
	}
}

// busy reports whether this CPU contends for its physical core's pipeline.
func (c *CPU) busy() bool { return c.curr != nil || c.switching }

// effSpeed computes the current execution speed given sibling activity.
func (c *CPU) effSpeed() float64 {
	if c.sib != nil && c.sib.busy() {
		return 1.0 / c.k.cost.SMTPenalty
	}
	return 1.0
}

// startSegment begins a run segment for the current thread: if the thread
// has pending work, a completion event is scheduled; otherwise (spinning)
// it just occupies the CPU.
func (c *CPU) startSegment() {
	t := c.curr
	if t == nil {
		return
	}
	c.segStart = c.k.eng.Now()
	c.speed = c.effSpeed()
	if t.pendingWork > 0 {
		c.completion = c.k.eng.AfterCall(c.burnTime(t), c.k.workDoneFn, c)
	}
}

// burnTime is the wall time t's pending work takes at the segment's
// speed, at least 1 ns.
func (c *CPU) burnTime(t *Thread) sim.Duration {
	wall := sim.Duration(float64(t.pendingWork)/c.speed + 0.5)
	if wall < 1 {
		wall = 1
	}
	return wall
}

// stopSegment ends the current run segment, charging progress and CPU
// time. Safe to call when no segment is active.
func (c *CPU) stopSegment() {
	if t := c.curr; t != nil && c.charge(t) {
		c.completion.Cancel()
	}
}

// charge credits t, the current thread, with the segment's CPU time and,
// while its completion is pending, its progress through the pending
// work, then restarts the segment clock. Progress always leaves at least
// one unit: a thread's work reaches zero only in workDone, when its
// completion fires. It reports whether the completion is pending; the
// caller owns it.
func (c *CPU) charge(t *Thread) (burning bool) {
	now := c.k.eng.Now()
	elapsed := now - c.segStart
	if elapsed > 0 {
		t.cpuTime += elapsed
	}
	burning = c.completion.Pending()
	if burning {
		progress := sim.Duration(float64(elapsed)*c.speed + 0.5)
		t.pendingWork -= min(progress, t.pendingWork-1)
	}
	c.segStart = now
	return burning
}

// resegment re-times the current segment at a fresh speed after the SMT
// sibling's busy state changed; smtChanged calls it only on a CPU that
// runs a thread outside a switch. A burning segment moves its completion
// event rather than cancelling it and arming a new one; the move takes a
// fresh sequence number, so the event fires exactly where a new one
// would have.
func (c *CPU) resegment() {
	burning := c.charge(c.curr)
	c.speed = c.effSpeed()
	if burning {
		c.completion.Move(c.segStart + c.burnTime(c.curr))
	}
}

// smtChanged is invoked when this CPU's busy state flips, so the sibling
// can re-derive its execution speed.
func (c *CPU) smtChanged() {
	sc := c.sib
	if sc == nil {
		return
	}
	if sc.curr != nil && !sc.switching && sc.speed != sc.effSpeed() {
		sc.resegment()
	}
}
