package ghostcore

import (
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// StatusWord is the shared-memory word exposing a thread's (or agent's)
// scheduling state to userspace (§3.1). Agents read it without syscalls.
type StatusWord struct {
	Seq      uint64 // Tseq for threads, Aseq for agents
	OnCPU    bool
	Runnable bool
	CPU      hw.CPUID
}

// ghostThread is the per-thread state of the ghOSt class, stored in
// kernel.Thread.Ghost.
type ghostThread struct {
	enc           *Enclave
	q             *Queue
	sw            StatusWord // sw.Seq is the thread's Tseq
	runnable      bool       // runnable and waiting for an agent decision
	latch         hw.CPUID   // CPU whose latch holds the thread, NoCPU if none
	runnableSince sim.Time
	pendingMsgs   int
	hint          any // application scheduling hint (Fig 1)
}

// Class is the ghOSt kernel scheduling class. One instance serves the
// whole machine; enclaves partition its CPUs (§3, Fig 2). It sits below
// CFS in the class hierarchy, so any CFS thread preempts ghOSt threads
// (§3.4), and ghOSt threads only ever run because an agent committed a
// transaction for them (or the BPF fastpath did on the agent's behalf).
type Class struct {
	k        *kernel.Kernel
	fallback kernel.Class // where threads go when an enclave dies

	cpuOwner []*Enclave // enclave owning each CPU, nil if none
	latches  []latch    // per-CPU committed thread awaiting switch-in
	// held is {cpu : latches[cpu].t != nil}. Only setLatch and unlatch
	// write latches and held, so agents test 256 CPUs for pending
	// commits with a few word operations (Enclave.Held).
	held kernel.Mask

	enclaves  []*Enclave
	nextEncID int

	// pendingEnclave routes ThreadAttached during Enclave.AddThread.
	pendingEnclave *Enclave

	// Txn installs are the hottest remote-schedule path: installFn is
	// bound once and receives the target CPU's latch record, so
	// committing a transaction allocates nothing.
	installFn func(any)

	// obs lists the protocol observers of each event (invariant
	// checking); empty in normal operation.
	obs observers
	// Mut holds intentionally seeded protocol bugs for the checker's
	// mutation tests; the zero value is correct behavior.
	Mut Mutations

	// TxnsOK and BPFCommits count committed transactions and fastpath
	// commits. They count with metrics off too: fig9's handoff poll and
	// bpf-fastpath read them on machines built without a tracer. The
	// other per-message and per-transaction counts live in the tracer
	// (trace.EnclaveMetrics) alone.
	TxnsOK     uint64
	BPFCommits uint64
}

// NewClass creates and registers the ghOSt scheduling class. fallback is
// the class threads revert to when their enclave is destroyed (CFS).
func NewClass(k *kernel.Kernel, fallback kernel.Class) *Class {
	g := &Class{
		k:        k,
		fallback: fallback,
		cpuOwner: make([]*Enclave, k.NumCPUs()),
		latches:  make([]latch, k.NumCPUs()),
	}
	for i := range g.latches {
		g.latches[i].cpu = hw.CPUID(i)
	}
	g.installFn = g.installFire
	k.RegisterClass(g)
	k.AddTickHook(g.onTick)
	k.AddIdleHook(g.onIdle)
	k.AddPressureHook(g.onPressure)
	return g
}

// Kernel returns the owning kernel.
func (g *Class) Kernel() *kernel.Kernel { return g.k }

// latch is one CPU's committed thread, from commit (or BPF pick) to
// switch-in (§3.2). A CPU holds at most one latch and a thread at most
// one: the thread's ghostThread.latch names the CPU. While inflight, the
// install IPI ipi is pending and carries the record itself as its
// argument; e, local and a are the committing enclave and agent that
// install needs.
type latch struct {
	cpu      hw.CPUID
	t        *kernel.Thread // nil when the CPU holds no latch
	inflight bool
	ipi      sim.Event
	e        *Enclave
	local    bool
	a        *Agent
}

// setLatch fills l.cpu's latch, which must be free, with l; l.t must
// hold no latch. setLatch and unlatch are the only writers of a latch's
// thread, of held and of ghostThread.latch, so the three always agree
// (the seeded DoubleLatch mutation in apply aside).
func (g *Class) setLatch(l latch) {
	g.latches[l.cpu] = l
	gstate(l.t).latch = l.cpu
	g.held.SetTo(l.cpu, true)
}

// unlatch frees cpu's latch, cancelling its install if one is pending,
// and tells observers why. It returns the thread the latch held.
func (g *Class) unlatch(cpu hw.CPUID, why string) *kernel.Thread {
	l := &g.latches[cpu]
	t, e := l.t, l.e
	l.ipi.Cancel()
	*l = latch{cpu: cpu}
	g.held.SetTo(cpu, false)
	gstate(t).latch = hw.NoCPU
	g.obsUnlatched(e, cpu, t, why)
	return t
}

func gstate(t *kernel.Thread) *ghostThread {
	gt, _ := t.Ghost.(*ghostThread)
	return gt
}

// ghostOf is a helper for queues to find per-thread state by TID.
func (e *Enclave) ghostOf(tid kernel.TID) *ghostThread {
	t := e.k.Thread(tid)
	if t == nil {
		return nil
	}
	return gstate(t)
}

// Name implements kernel.Class.
func (g *Class) Name() string { return "ghost" }

// Priority implements kernel.Class: below CFS by design (§3.4).
func (g *Class) Priority() int { return kernel.PrioGhost }

// SwitchInCost implements kernel.Class.
func (g *Class) SwitchInCost() sim.Duration { return g.k.Cost().ContextSwitchMinimal }

// ThreadAttached implements kernel.Class: the thread joins the enclave
// that is currently adding it and its creation is announced to the agent.
func (g *Class) ThreadAttached(t *kernel.Thread) {
	enc := g.pendingEnclave
	if enc == nil {
		panic("ghostcore: thread attached outside Enclave.AddThread")
	}
	gt := &ghostThread{enc: enc, q: enc.defaultQueue, latch: hw.NoCPU}
	t.Ghost = gt
	enc.threads[t.TID()] = t
	g.postThreadMsg(t, MsgThreadCreated)
}

// ThreadDetached implements kernel.Class: the agent sees a departing
// thread (death or move back to CFS) as THREAD_DEAD.
func (g *Class) ThreadDetached(t *kernel.Thread, r kernel.DequeueReason) {
	gt := gstate(t)
	if gt == nil {
		return
	}
	g.clearSlot(t)
	g.postThreadMsg(t, MsgThreadDead)
	delete(gt.enc.threads, t.TID())
	gt.runnable = false
	t.Ghost = nil
}

// postThreadMsg bumps Tseq and posts a message to the thread's queue.
func (g *Class) postThreadMsg(t *kernel.Thread, mt MsgType) {
	gt := gstate(t)
	if gt == nil || gt.enc.destroyed {
		return
	}
	g.obsMsgIntent(gt.enc, t.TID(), mt)
	old := gt.sw.Seq
	if !(g.Mut.SkipTseqBump && mt == MsgThreadWakeup) {
		gt.sw.Seq++
	}
	gt.sw.Runnable = gt.runnable
	switch mt {
	case MsgThreadPreempted, MsgThreadBlocked, MsgThreadYield, MsgThreadDead:
		// These messages mark an off-CPU transition; the kernel may post
		// them just before the context switch completes, so the status
		// word must already drop the OnCpu claim (§3.1).
		gt.sw.OnCPU = false
		gt.sw.CPU = hw.NoCPU
	default:
		gt.sw.OnCPU = t.State() == kernel.StateRunning
		gt.sw.CPU = t.OnCPU()
	}
	g.obsTseq(gt.enc, t, old, gt.sw.Seq, mt)
	if g.Mut.DropWakeup && mt == MsgThreadWakeup {
		// Seeded lost-wakeup bug: the message never reaches the queue.
		return
	}
	gt.pendingMsgs++
	gt.q.post(Message{
		Type:     mt,
		TID:      t.TID(),
		Seq:      gt.sw.Seq,
		CPU:      t.LastCPU(),
		Runnable: gt.runnable,
	})
}

// Enqueue implements kernel.Class. Ghost threads are not held in a
// kernel runqueue — runnable threads wait for an agent transaction — so
// Enqueue only does state tracking and messaging.
func (g *Class) Enqueue(t *kernel.Thread, cpu hw.CPUID, r kernel.EnqueueReason) {
	gt := gstate(t)
	if gt == nil {
		return
	}
	first := !gt.runnable
	gt.runnable = true
	if first {
		gt.runnableSince = g.k.Now()
	}
	switch r {
	case kernel.EnqWake, kernel.EnqClassChange:
		g.postThreadMsg(t, MsgThreadWakeup)
	case kernel.EnqPreempt:
		g.postThreadMsg(t, MsgThreadPreempted)
	case kernel.EnqYield:
		g.postThreadMsg(t, MsgThreadYield)
	}
}

// Dequeue implements kernel.Class.
func (g *Class) Dequeue(t *kernel.Thread, r kernel.DequeueReason) {
	gt := gstate(t)
	if gt == nil {
		return
	}
	gt.runnable = false
	g.clearSlot(t)
	if r == kernel.DeqBlock {
		g.postThreadMsg(t, MsgThreadBlocked)
	}
}

// clearSlot frees the latch t holds, if any.
func (g *Class) clearSlot(t *kernel.Thread) {
	if gt := gstate(t); gt != nil && gt.latch != hw.NoCPU {
		g.unlatch(gt.latch, "clear")
	}
}

// installed returns the thread latched on cpu whose install is done, nil
// if none.
func (g *Class) installed(cpu hw.CPUID) *kernel.Thread {
	if l := &g.latches[cpu]; !l.inflight {
		return l.t
	}
	return nil
}

// Queued implements kernel.Class: only an installed latch gives ghOSt a
// claim on a CPU.
func (g *Class) Queued(c *kernel.CPU) bool {
	return g.installed(c.ID) != nil
}

// Eligible implements kernel.Class: ghOSt threads run to completion until
// something preempts them.
func (g *Class) Eligible(c *kernel.CPU, running *kernel.Thread) bool { return true }

// PickNext implements kernel.Class: install the latched thread, demoting
// (and notifying) a running ghOSt thread if the transaction preempts it.
func (g *Class) PickNext(c *kernel.CPU, prev *kernel.Thread) *kernel.Thread {
	s := g.installed(c.ID)
	if s == nil {
		return prev
	}
	gt := gstate(s)
	if s == prev {
		g.unlatch(c.ID, "switch-in")
		g.obsInstalled(gt.enc, c.ID, s)
		return prev
	}
	if s.State() != kernel.StateRunnable || !s.Affinity().Has(c.ID) {
		// The latched thread changed state between commit and install.
		g.unlatch(c.ID, "stale")
		return prev
	}
	gt.runnable = false
	gt.sw.OnCPU = true
	gt.sw.CPU = c.ID
	g.unlatch(c.ID, "switch-in")
	g.obsInstalled(gt.enc, c.ID, s)
	if prev != nil {
		// Transactional preemption of the running ghOSt thread (§3.3).
		g.Enqueue(prev, c.ID, kernel.EnqPreempt)
	}
	return s
}

// SelectCPU implements kernel.Class: a nominal placement used only for
// bookkeeping — ghOSt threads run where transactions put them.
func (g *Class) SelectCPU(t *kernel.Thread) hw.CPUID {
	gt := gstate(t)
	if gt != nil {
		if last := t.LastCPU(); last != hw.NoCPU && t.Affinity().Has(last) && gt.enc.cpus.Has(last) {
			return last
		}
		if first := t.Affinity().And(gt.enc.cpus).First(); first != hw.NoCPU {
			return first
		}
	}
	return t.Affinity().First()
}

// WantsPreempt implements kernel.Class.
func (g *Class) WantsPreempt(c *kernel.CPU, curr, incoming *kernel.Thread) bool { return false }

// Tick implements kernel.Class (per-thread tick; TIMER_TICK messages are
// produced by the kernel tick hook instead).
func (g *Class) Tick(c *kernel.CPU, t *kernel.Thread) {}

// onTick routes TIMER_TICK messages to the agent queue of the ticking
// CPU (§3.1) when the enclave asked for them.
func (g *Class) onTick(c *kernel.CPU) {
	enc := g.cpuOwner[c.ID]
	if enc == nil || enc.destroyed || !enc.DeliverTicks {
		return
	}
	q := enc.tickQueue(c.ID)
	if q != nil {
		q.post(Message{Type: MsgTimerTick, CPU: c.ID})
	}
}

// onIdle runs when a CPU goes idle: the owning enclave's BPF fastpath,
// then its centralized agent's idle callback (SetAgentHooks). The
// fastpath's commit reschedules the CPU later (Resched), so the agent
// is poked either way.
func (g *Class) onIdle(c *kernel.CPU) {
	enc := g.cpuOwner[c.ID]
	if enc == nil || enc.destroyed {
		return
	}
	if enc.bpf != nil && !g.held.Has(c.ID) {
		g.bpfCommit(enc, c)
	}
	if enc.agentIdle != nil {
		enc.agentIdle()
	}
}

// onPressure passes non-ghOSt work (CFS, MicroQuanta daemons, ...)
// queued behind a CPU's current thread to the owning enclave's
// centralized agent (SetAgentHooks), which may hand the global role off
// that CPU (§3.3). ghOSt threads run wherever the policy puts them, so
// they exert no pressure.
func (g *Class) onPressure(c *kernel.CPU, incoming *kernel.Thread) {
	enc := g.cpuOwner[c.ID]
	if enc == nil || enc.agentPressure == nil || incoming.Class().Priority() <= kernel.PrioGhost {
		return
	}
	enc.agentPressure(c)
}

// bpfCommit is the BPF fastpath (§3.2): when a CPU in an enclave goes
// idle with no committed transaction, installed or in flight, the
// enclave's BPF program may commit a thread immediately, closing the
// agent's scheduling gap.
func (g *Class) bpfCommit(enc *Enclave, c *kernel.CPU) {
	t := enc.bpf.PickNextOnIdle(c.ID)
	if t == nil {
		return
	}
	gt := gstate(t)
	if gt == nil || gt.enc != enc || gt.latch != hw.NoCPU || !gt.runnable ||
		t.State() != kernel.StateRunnable || !t.Affinity().Has(c.ID) {
		return
	}
	gt.runnable = false
	g.setLatch(latch{cpu: c.ID, t: t, e: enc})
	g.obsLatched(enc, c.ID, t, Commit{})
	g.BPFCommits++
	g.k.Resched(c.ID)
}

// enclaveByID returns the enclave with the given id, nil if destroyed.
func (g *Class) enclaveByID(id int) *Enclave {
	for _, e := range g.enclaves {
		if e.id == id && !e.destroyed {
			return e
		}
	}
	return nil
}

// Enclaves returns the live enclaves.
func (g *Class) Enclaves() []*Enclave {
	var out []*Enclave
	for _, e := range g.enclaves {
		if !e.destroyed {
			out = append(out, e)
		}
	}
	return out
}
