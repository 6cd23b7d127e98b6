// Package kernel implements a simulated operating-system kernel: threads,
// CPUs, a Linux-style scheduling-class hierarchy, timer ticks, wakeups,
// affinity, and nice values. It is the substrate on which the ghOSt
// scheduling class (internal/ghostcore) and the baseline schedulers run.
//
// Every thread runs through one seam: a step function the kernel calls
// for the thread's next action. Thread bodies are written as plain Go
// functions that interact with the kernel through a TaskContext; the
// kernel executes them deterministically on virtual time, each as a
// coroutine that its step resumes and that parks again at its next
// TaskContext call, so only one of them ever runs. Hot bodies, the
// scheduler agents, the dataplane pollers and every body a snapshot can
// carry are instead explicit state machines (Steps) that the kernel
// calls at the same points; a snapshot refuses a thread that still runs
// on a coroutine.
package kernel

import (
	"fmt"
	"sort"

	"ghost/internal/faults"
	"ghost/internal/hw"
	"ghost/internal/sim"
)

// Kernel is a simulated kernel instance for one machine.
type Kernel struct {
	eng  *sim.Engine
	topo *hw.Topology
	cost hw.CostModel

	cpus    []*CPU
	idle    Mask      // {c : c.Idle()}, kept by CPU.setCurr/setSwitching
	pending Mask      // {c : c.reschedPending}, kept by CPU.setReschedPending
	ccx     []Mask    // CPUs of each CCX (L3 domain), by CCX index
	sockets []Mask    // CPUs of each socket, by socket index
	threads []*Thread // indexed by TID; nil for TID 0 and unused TIDs
	live    []*Thread
	nextTID TID

	classes []Class // sorted by descending priority

	idleHooks     []func(*CPU)
	tickHooks     []func(*CPU)
	pressureHooks []func(*CPU, *Thread)
	switchHooks   []func(*CPU, *Thread)
	wakeHooks     []func(*CPU, *Thread)
	tickless      []bool // per-CPU: skip timer ticks (§5 tickless mode)

	// faults is the fault-injection plan replayer; nil when no plan is
	// installed.
	faults *faults.Injector

	// Callbacks bound once in New so the hottest schedule sites
	// (reschedule passes, run completions, switch dead time, pokes,
	// sleeps) go through the engine's allocation-free AfterCall path.
	reschedFn    func(any)
	workDoneFn   func(any)
	switchDoneFn func(any)
	pokeFn       func(any)
	wakeFn       func(any)

	shutdown bool
}

// New creates a kernel for the given topology and cost model, attached to
// the engine. Timer ticks are started for every CPU, staggered across the
// tick period.
func New(eng *sim.Engine, topo *hw.Topology, cost hw.CostModel) *Kernel {
	k := &Kernel{
		eng:     eng,
		topo:    topo,
		cost:    cost,
		threads: make([]*Thread, 1),
		nextTID: 1,
	}
	k.reschedFn = k.reschedFire
	k.workDoneFn = k.workDoneFire
	k.switchDoneFn = k.switchDoneFire
	k.pokeFn = k.pokeFire
	k.wakeFn = k.wakeFire
	n := topo.NumCPUs()
	k.cpus = make([]*CPU, n)
	k.idle = MaskAll(n)
	k.ccx = make([]Mask, topo.NumCCXs())
	k.sockets = make([]Mask, topo.NumSockets())
	k.tickless = make([]bool, n)
	for i := 0; i < n; i++ {
		k.cpus[i] = &CPU{ID: hw.CPUID(i), Info: topo.CPU(hw.CPUID(i)), k: k}
		k.ccx[k.cpus[i].Info.CCX].Set(hw.CPUID(i))
		k.sockets[k.cpus[i].Info.Socket].Set(hw.CPUID(i))
	}
	for _, c := range k.cpus {
		if sib := c.Info.Sibling(); sib != hw.NoCPU {
			c.sib = k.cpus[sib]
		}
	}
	// Staggered per-CPU timer ticks: each CPU's start event arms its
	// first tick one period later.
	for i, c := range k.cpus {
		offset := cost.TickPeriod * sim.Duration(i) / sim.Duration(n)
		eng.AtCall(eng.Now()+offset, startTickFn, c)
	}
	return k
}

// startTickFn arms a CPU's first timer tick one period after its
// staggered start offset (a snapshot event kind of SnapshotEvents).
func startTickFn(a any) {
	c := a.(*CPU)
	c.k.eng.AfterCall(c.k.cost.TickPeriod, tickFire, c)
}

// tickFire delivers a CPU's timer tick and arms the next one a period
// later (a snapshot event kind of SnapshotEvents).
func tickFire(a any) {
	c := a.(*CPU)
	c.k.tick(c)
	c.k.eng.AfterCall(c.k.cost.TickPeriod, tickFire, c)
}

// Engine returns the machine's event engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// SetFaults installs a fault-injection plan replayer (nil removes it).
// The ghOSt core and agent SDK read it back with Faults, so one injector
// perturbs the whole stack.
func (k *Kernel) SetFaults(in *faults.Injector) { k.faults = in }

// Faults returns the installed fault injector; nil when fault injection
// is off. All faults.Injector interception methods are nil-safe.
func (k *Kernel) Faults() *faults.Injector { return k.faults }

// Topology returns the machine topology.
func (k *Kernel) Topology() *hw.Topology { return k.topo }

// Cost returns the cost model.
func (k *Kernel) Cost() *hw.CostModel { return &k.cost }

// Now returns the current simulated time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// CPU returns the CPU object for id.
func (k *Kernel) CPU(id hw.CPUID) *CPU { return k.cpus[id] }

// NumCPUs returns the number of CPUs.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// RegisterClass adds a scheduling class. Classes must be registered
// before threads are spawned into them.
func (k *Kernel) RegisterClass(c Class) {
	k.classes = append(k.classes, c)
	sort.SliceStable(k.classes, func(i, j int) bool {
		return k.classes[i].Priority() > k.classes[j].Priority()
	})
}

// Class returns the registered class with the given name, or nil.
func (k *Kernel) Class(name string) Class {
	for _, c := range k.classes {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// AddIdleHook registers fn to run whenever a CPU becomes idle. The ghOSt
// class's hook runs the BPF-style fastpath and pokes a spinning global
// agent on capacity changes.
func (k *Kernel) AddIdleHook(fn func(*CPU)) { k.idleHooks = append(k.idleHooks, fn) }

// AddTickHook registers fn to run on every per-CPU timer tick (after the
// class tick). The ghOSt class uses this to emit TIMER_TICK messages.
func (k *Kernel) AddTickHook(fn func(*CPU)) { k.tickHooks = append(k.tickHooks, fn) }

// AddSwitchHook registers fn to run after every context switch, once the
// incoming thread is installed as the CPU's current. Invariant checkers
// use it to audit cross-thread state at switch granularity.
func (k *Kernel) AddSwitchHook(fn func(*CPU, *Thread)) {
	k.switchHooks = append(k.switchHooks, fn)
}

// AddWakeHook registers fn to run when a wakeup has placed a thread on a
// CPU, before its class enqueues it there.
func (k *Kernel) AddWakeHook(fn func(*CPU, *Thread)) { k.wakeHooks = append(k.wakeHooks, fn) }

// AddPressureHook registers fn to run when a lower-priority thread is
// queued on a CPU held by a higher-priority one (e.g. a CFS thread
// waiting behind a spinning global agent). The ghOSt class uses this to
// trigger the global agent's "hot handoff" (§3.3).
func (k *Kernel) AddPressureHook(fn func(*CPU, *Thread)) {
	k.pressureHooks = append(k.pressureHooks, fn)
}

// SpawnOpts configures thread creation.
type SpawnOpts struct {
	Name     string
	Class    Class
	Affinity Mask // zero value means "all CPUs"
	Nice     int
	Tag      any
}

// Spawn creates a thread running body and hands it to its scheduling
// class. The thread starts executing (in simulated terms) as soon as its
// class schedules it; body code before the first TaskContext call runs at
// spawn time.
func (k *Kernel) Spawn(opts SpawnOpts, body ThreadFunc) *Thread {
	t := k.newThread(opts)
	t.startBody(body)
	k.applyAction(t, t.nextAction())
	return t
}

func (k *Kernel) newThread(opts SpawnOpts) *Thread {
	if opts.Class == nil {
		panic("kernel: Spawn without class")
	}
	if opts.Affinity.Empty() {
		opts.Affinity = MaskAll(k.topo.NumCPUs())
	}
	if k.nextTID >= MaxTID {
		panic(fmt.Sprintf("kernel: TID space exhausted (%d threads)", MaxTID-1))
	}
	t := &Thread{
		tid:      k.nextTID,
		name:     opts.Name,
		k:        k,
		state:    StateNew,
		class:    opts.Class,
		nice:     opts.Nice,
		affinity: opts.Affinity,
		lastCPU:  hw.NoCPU,
		Tag:      opts.Tag,
	}
	k.nextTID++
	if n := int(t.tid) + 1; n > len(k.threads) {
		// TIDs are dense except for gaps SetNextTID leaves at restore.
		k.threads = append(k.threads, make([]*Thread, n-len(k.threads))...)
	}
	k.threads[t.tid] = t
	k.live = append(k.live, t)
	t.class.ThreadAttached(t)
	return t
}

// MaxTID bounds thread ids: every TID is in [1, MaxTID). The thread
// table is a slice indexed by TID, so the bound caps its size, and
// Spawn panics once the space is used up. Restore rejects snapshots
// whose TIDs or next TID exceed it.
const MaxTID TID = 1 << 20

// Thread returns the thread with the given id, or nil.
func (k *Kernel) Thread(tid TID) *Thread {
	if tid < 0 || int(tid) >= len(k.threads) {
		return nil
	}
	return k.threads[tid]
}

// wakeFire adapts Wake to the engine's pre-bound callback shape; it backs
// sleep timers.
func (k *Kernel) wakeFire(a any) { k.Wake(a.(*Thread)) }

// Wake transitions a blocked thread to runnable, selecting a CPU via its
// class and possibly preempting. Waking a thread that is not blocked
// records a pending wake consumed by its next Block.
func (k *Kernel) Wake(t *Thread) {
	switch t.state {
	case StateDead:
		return
	case StateBlocked:
		k.makeRunnable(t, EnqWake)
		// Complete the pending Block and fetch what's next.
		k.applyAction(t, t.nextAction())
	default:
		t.wakePending = true
	}
}

// makeRunnable enqueues t with its class and triggers preemption checks.
func (k *Kernel) makeRunnable(t *Thread, r EnqueueReason) {
	t.state = StateRunnable
	t.wakeTime = k.eng.Now()
	var cpu hw.CPUID
	if r == EnqWake || r == EnqClassChange {
		cpu = t.class.SelectCPU(t)
		if !t.affinity.Has(cpu) {
			panic(fmt.Sprintf("kernel: %s.SelectCPU returned %d outside affinity %v",
				t.class.Name(), cpu, t.affinity))
		}
	} else {
		cpu = t.lastCPU
	}
	t.targetCPU = cpu
	if r == EnqWake {
		for _, h := range k.wakeHooks {
			h(k.cpus[cpu], t)
		}
	}
	t.class.Enqueue(t, cpu, r)
	k.maybePreempt(k.cpus[cpu], t)
}

// maybePreempt triggers a reschedule of c if the newly enqueued thread t
// should take the CPU.
func (k *Kernel) maybePreempt(c *CPU, t *Thread) {
	curr := c.curr
	switch {
	case curr == nil:
		k.Resched(c.ID)
	case t.class.Priority() > curr.class.Priority():
		k.Resched(c.ID)
	case t.class == curr.class && t.class.WantsPreempt(c, curr, t):
		k.Resched(c.ID)
	case t.class.Priority() < curr.class.Priority():
		for _, h := range k.pressureHooks {
			h(c, t)
		}
	}
}

// Resched requests a scheduling pass on CPU id. Multiple requests at the
// same instant coalesce.
func (k *Kernel) Resched(id hw.CPUID) {
	c := k.cpus[id]
	if c.reschedPending {
		return
	}
	c.setReschedPending(true)
	k.eng.AfterCall(0, k.reschedFn, c)
}

// reschedFire runs the deferred scheduling pass queued by Resched.
func (k *Kernel) reschedFire(a any) {
	c := a.(*CPU)
	c.setReschedPending(false)
	k.doSchedule(c)
}

// nearestFree returns the CPU of domain that is free for placement
// (FreeForPlacement) and nearest to last in the cache hierarchy, the
// lowest-numbered among equally near ones, or hw.NoCPU when none is
// free. Without a last CPU every free CPU is equally near. Distance
// tiers are last itself, its SMT sibling, its CCX, its socket and the
// rest of the machine (hw.Topology.Dist), so each tier is one mask test.
func (k *Kernel) nearestFree(domain Mask, last hw.CPUID) hw.CPUID {
	free := domain.And(k.idle).AndNot(k.pending)
	switch {
	case free.Has(last):
		return last
	case last == hw.NoCPU || free.Empty():
		return free.First()
	}
	c := k.cpus[last]
	if c.sib != nil && free.Has(c.sib.ID) {
		return c.sib.ID
	}
	if id := free.And(k.ccx[c.Info.CCX]).First(); id != hw.NoCPU {
		return id
	}
	if id := free.And(k.sockets[c.Info.Socket]).First(); id != hw.NoCPU {
		return id
	}
	return free.First()
}

// doSchedule is the core scheduling pass for one CPU.
func (k *Kernel) doSchedule(c *CPU) {
	if k.shutdown {
		return
	}
	if c.switching {
		c.needResched = true
		return
	}
	prev := c.curr
	if prev != nil && !prev.affinity.Has(c.ID) {
		// Affinity changed under a running thread: evict and replace it
		// through normal wake placement.
		c.stopSegment()
		prev.cpu = nil
		prev.lastCPU = c.ID
		c.setCurr(nil)
		k.makeRunnable(prev, EnqWake)
		prev = nil
	}
	if prev != nil && !prev.class.Eligible(c, prev) {
		// The running thread lost its right to the CPU (e.g. it was
		// throttled); demote it before electing a successor.
		c.stopSegment()
		k.offCPU(c, prev, EnqPreempt)
		prev = nil
	}
	// Find the highest-priority class with a claim on this CPU.
	var winner Class
	winnerIdx := -1
	for i, cl := range k.classes {
		if (prev != nil && prev.class == cl) || cl.Queued(c) {
			winner, winnerIdx = cl, i
			break
		}
	}
	if winner == nil {
		k.cpuIdle(c)
		return
	}
	var prevSame *Thread
	if prev != nil {
		if prev.class == winner {
			prevSame = prev
		} else {
			// Cross-class preemption: demote prev to its runqueue.
			c.stopSegment()
			k.offCPU(c, prev, EnqPreempt)
		}
	}
	next := winner.PickNext(c, prevSame)
	if next == nil {
		if prevSame != nil {
			return // prev keeps running
		}
		// Winner declined (e.g. ghOSt with no committed txn); try
		// lower classes.
		for _, lower := range k.classes[winnerIdx+1:] {
			if lower.Queued(c) {
				if next = lower.PickNext(c, nil); next != nil {
					break
				}
			}
		}
		if next == nil {
			k.cpuIdle(c)
			return
		}
	}
	if next == prevSame {
		return // keep running; burn untouched
	}
	if prevSame != nil {
		// Same-class switch: PickNext already requeued prevSame; just
		// detach it from the CPU.
		c.stopSegment()
		prevSame.cpu = nil
		prevSame.lastCPU = c.ID
		if prevSame.state == StateRunning {
			prevSame.state = StateRunnable
		}
		c.setCurr(nil)
	}
	k.switchTo(c, next)
}

// offCPU removes a running thread from its CPU and requeues it runnable.
func (k *Kernel) offCPU(c *CPU, t *Thread, r EnqueueReason) {
	t.cpu = nil
	t.lastCPU = c.ID
	c.setCurr(nil)
	t.state = StateRunnable
	t.targetCPU = c.ID
	t.class.Enqueue(t, c.ID, r)
}

// cpuIdle finalizes a scheduling pass that found no work: accounts the
// idle transition and fires idle hooks (which may immediately commit new
// work onto the CPU).
func (k *Kernel) cpuIdle(c *CPU) {
	if c.curr != nil {
		return
	}
	c.accountIdle()
	for _, h := range k.idleHooks {
		h(c)
		if c.curr != nil || c.switching {
			return
		}
	}
}

// switchTo installs next on c, charging context-switch dead time and a
// cache-warmth migration penalty.
func (k *Kernel) switchTo(c *CPU, next *Thread) {
	if next.state != StateRunnable {
		panic(fmt.Sprintf("kernel: switching to %v in state %v", next, next.state))
	}
	if !next.affinity.Has(c.ID) {
		panic(fmt.Sprintf("kernel: %v scheduled on cpu%d outside affinity", next, c.ID))
	}
	next.state = StateRunning
	next.cpu = c
	c.setCurr(next)
	c.accountBusy()
	for _, fn := range k.switchHooks {
		fn(c, next)
	}
	// Cache-warmth penalty: one-time extra work after a migration.
	if next.lastCPU != hw.NoCPU && next.pendingWork > 0 {
		next.pendingWork += k.cost.MigrationPenalty(k.topo.Dist(next.lastCPU, c.ID))
	}
	cost := next.class.SwitchInCost()
	if cost <= 0 {
		k.resumeOnCPU(c)
		return
	}
	c.setSwitching(true)
	c.eventAfterSwitch(cost)
}

func (c *CPU) eventAfterSwitch(cost sim.Duration) {
	c.k.eng.AfterCall(cost, c.k.switchDoneFn, c)
}

// switchDoneFire ends context-switch dead time on a CPU.
func (k *Kernel) switchDoneFire(a any) {
	c := a.(*CPU)
	c.setSwitching(false)
	resched := c.needResched
	c.needResched = false
	k.resumeOnCPU(c)
	if resched {
		k.Resched(c.ID)
	}
}

// resumeOnCPU starts executing the current thread after a switch.
func (k *Kernel) resumeOnCPU(c *CPU) {
	t := c.curr
	if t == nil {
		return
	}
	// Only a Run request has pending work, and never zero of it.
	switch t.curKind {
	case actSpinIdle, actStepPending:
		k.applyAction(t, Action{kind: t.curKind})
	default:
		c.startSegment()
	}
}

// workDoneFire adapts workDone to the engine's pre-bound callback shape.
func (k *Kernel) workDoneFire(a any) { k.workDone(a.(*CPU)) }

// workDone fires when the current thread's run segment completes: the
// one place its pending work reaches zero (charge leaves a unit).
func (k *Kernel) workDone(c *CPU) {
	t := c.curr
	c.charge(t)
	t.pendingWork = 0
	k.applyAction(t, t.nextAction())
}

// stepOnCPU asks a thread on a CPU for its next action, ending the
// current segment first.
func (k *Kernel) stepOnCPU(t *Thread) {
	if t.state != StateRunning || t.cpu == nil {
		return
	}
	t.cpu.stopSegment()
	k.applyAction(t, t.nextAction())
}

// Poke nudges a polling thread: if it is spinning on a CPU (SpinAction)
// it is stepped promptly; otherwise the poke is remembered until the
// thread's next step (see Charge).
func (k *Kernel) Poke(t *Thread) {
	if t == nil || t.state == StateDead {
		return
	}
	t.poked = true
	if t.state == StateRunning && t.curKind == actSpinIdle && t.cpu != nil {
		// Defer to an event so pokes inside other handlers coalesce.
		k.eng.AfterCall(0, k.pokeFn, t)
	}
}

// pokeFire delivers a deferred Poke to a spinning thread.
func (k *Kernel) pokeFire(a any) {
	t := a.(*Thread)
	if t.poked && t.state == StateRunning && t.curKind == actSpinIdle {
		k.stepOnCPU(t)
	}
}

// applyAction implements the thread-action state machine.
func (k *Kernel) applyAction(t *Thread, a Action) {
	t.curKind = a.kind
	switch a.kind {
	case actRun:
		t.pendingWork = a.dur
		switch t.state {
		case StateNew:
			k.makeRunnable(t, EnqWake)
		case StateRunning:
			t.cpu.startSegment()
		case StateRunnable:
			// Queued; burns when scheduled.
		default:
			panic(fmt.Sprintf("kernel: Run from %v in state %v", t, t.state))
		}
	case actBlock:
		if t.poked && t.state == StateRunning {
			// A poke (e.g. a new ghOSt message) landed while the step's
			// cost was being charged; complete the Block at once, so the
			// thread steps again instead of stranding the event until
			// the next wakeup.
			k.applyAction(t, t.nextAction())
			return
		}
		if t.wakePending {
			t.wakePending = false
			k.applyAction(t, t.nextAction())
			return
		}
		switch t.state {
		case StateNew:
			t.state = StateBlocked
		case StateRunning:
			c := t.cpu
			c.stopSegment()
			t.state = StateBlocked
			t.cpu = nil
			t.lastCPU = c.ID
			c.setCurr(nil)
			t.class.Dequeue(t, DeqBlock)
			k.Resched(c.ID)
		case StateRunnable:
			t.state = StateBlocked
			t.class.Dequeue(t, DeqBlock)
		default:
			panic(fmt.Sprintf("kernel: Block from %v in state %v", t, t.state))
		}
	case actYield:
		if t.state == StateRunning {
			c := t.cpu
			c.stopSegment()
			k.offCPU(c, t, EnqYield)
			k.Resched(c.ID)
		}
		k.applyAction(t, t.nextAction())
	case actExit:
		k.reap(t)
	case actSpinIdle, actStepPending:
		switch t.state {
		case StateRunning:
			if a.kind == actSpinIdle {
				t.cpu.startSegment() // occupies the CPU without a completion event
				if !t.poked {
					return
				}
				// A poke landed while the step's cost was charging;
				// re-step now rather than spinning past the event.
			}
			k.stepOnCPU(t)
		case StateNew:
			k.makeRunnable(t, EnqWake)
		case StateRunnable:
			// Spins or steps once switched in (resumeOnCPU).
		default:
			panic(fmt.Sprintf("kernel: %v spins or steps on CPU from state %v", t, t.state))
		}
	}
}

// ForceOffCPU preempts a running thread off its CPU immediately,
// requeueing it in its class. Used by ghOSt's per-core scheduling to
// force a sibling idle.
func (k *Kernel) ForceOffCPU(t *Thread) {
	if t.state != StateRunning || t.cpu == nil {
		return
	}
	c := t.cpu
	c.stopSegment()
	k.offCPU(c, t, EnqPreempt)
	k.Resched(c.ID)
}

// Kill forcibly terminates a thread (used for agent crashes and enclave
// destruction). Safe on any state; idempotent.
func (k *Kernel) Kill(t *Thread) {
	if t.state == StateDead {
		return
	}
	if t.state == StateBlocked {
		t.class.Dequeue(t, DeqDead)
	}
	k.reap(t)
}

// reap finalizes a dead thread.
func (k *Kernel) reap(t *Thread) {
	prevState := t.state
	t.state = StateDead
	if prevState == StateRunning && t.cpu != nil {
		c := t.cpu
		c.stopSegment()
		t.cpu = nil
		t.lastCPU = c.ID
		c.setCurr(nil)
		k.Resched(c.ID)
	} else if prevState == StateRunnable {
		t.class.Dequeue(t, DeqDead)
	}
	t.class.ThreadDetached(t, DeqDead)
	if t.stop != nil {
		t.stop()
	}
}

// SetClass migrates a thread to a different scheduling class. Running or
// runnable threads are requeued in the new class.
func (k *Kernel) SetClass(t *Thread, nc Class) {
	if t.class == nc || t.state == StateDead {
		return
	}
	oldState := t.state
	if oldState == StateRunning {
		c := t.cpu
		c.stopSegment()
		t.cpu = nil
		t.lastCPU = c.ID
		c.setCurr(nil)
		t.state = StateRunnable
		k.Resched(c.ID)
	} else if oldState == StateRunnable {
		t.class.Dequeue(t, DeqClassChange)
	}
	t.class.ThreadDetached(t, DeqClassChange)
	t.class = nc
	nc.ThreadAttached(t)
	if t.state == StateRunnable {
		k.makeRunnable(t, EnqClassChange)
	}
}

// SetTickless enables or disables timer ticks on a CPU. With ticks off
// the CPU pays no per-tick overhead and its class receives no Tick
// callbacks — safe for ghOSt CPUs driven by a spinning global agent,
// which is exactly the §5 tickless-scheduling optimization.
func (k *Kernel) SetTickless(id hw.CPUID, on bool) { k.tickless[id] = on }

// tick delivers the periodic timer tick on c.
func (k *Kernel) tick(c *CPU) {
	if k.shutdown || k.tickless[c.ID] {
		return
	}
	if c.curr != nil && !c.switching {
		if ov := k.cost.TickOverhead; ov > 0 && c.curr.pendingWork > 0 {
			// The tick interrupts the running thread (a VM-exit for
			// guest vCPUs): inject its cost as extra work.
			c.stopSegment()
			c.curr.pendingWork += ov
			c.startSegment()
		}
		c.curr.class.Tick(c, c.curr)
	}
	for _, h := range k.tickHooks {
		h(c)
	}
}

// Shutdown unwinds every parked thread body, ending its coroutine, so a
// finished simulation does not leak them. The kernel is unusable
// afterwards.
func (k *Kernel) Shutdown() {
	k.shutdown = true
	for _, t := range k.live {
		if t.state != StateDead && t.stop != nil {
			t.stop()
		}
		t.state = StateDead
	}
}

// IdleMask returns the set of currently idle CPUs.
func (k *Kernel) IdleMask() Mask { return k.idle }

// IdleCPUs returns the ids of all currently idle CPUs in ascending order.
func (k *Kernel) IdleCPUs() []hw.CPUID { return k.idle.CPUs() }
