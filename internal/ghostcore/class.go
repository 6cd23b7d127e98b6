package ghostcore

import (
	"fmt"

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
	tseq          uint64
	sw            StatusWord
	runnable      bool // runnable and waiting for an agent decision
	latched       bool // committed by a transaction, switch-in pending
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

	cpuOwner []*Enclave       // enclave owning each CPU, nil if none
	slots    []*kernel.Thread // per-CPU latched thread (install done)
	inflight []*kernel.Thread // per-CPU committed thread, IPI in flight
	// held is {cpu : slots[cpu] != nil || inflight[cpu] != nil}. Only
	// setSlot and setInflight write slots and inflight, and both keep
	// held in step, so agents test 256 CPUs for pending commits with a
	// few word operations (Enclave.Held).
	held kernel.Mask

	enclaves  []*Enclave
	nextEncID int

	// pendingEnclave routes ThreadAttached during Enclave.AddThread.
	pendingEnclave *Enclave

	// Txn installs are the hottest remote-schedule path: installFn is
	// bound once and installPool recycles the per-commit records it
	// receives, so committing a transaction allocates nothing.
	installFn   func(any)
	installPool []*installRec

	// observers receive protocol events (invariant checking); empty in
	// normal operation so every emission is a nil-slice loop.
	observers []Observer
	// Mut holds intentionally seeded protocol bugs for the checker's
	// mutation tests; the zero value is correct behavior.
	Mut Mutations

	// Stats.
	MsgsPosted uint64
	TxnsOK     uint64
	TxnsFailed uint64
	BPFCommits uint64
}

// NewClass creates and registers the ghOSt scheduling class. fallback is
// the class threads revert to when their enclave is destroyed (CFS).
func NewClass(k *kernel.Kernel, fallback kernel.Class) *Class {
	g := &Class{
		k:        k,
		fallback: fallback,
		cpuOwner: make([]*Enclave, k.NumCPUs()),
		slots:    make([]*kernel.Thread, k.NumCPUs()),
		inflight: make([]*kernel.Thread, k.NumCPUs()),
	}
	g.installFn = g.installFire
	k.RegisterClass(g)
	k.AddTickHook(g.onTick)
	k.AddIdleHook(g.onIdle)
	return g
}

// Kernel returns the owning kernel.
func (g *Class) Kernel() *kernel.Kernel { return g.k }

// setSlot and setInflight are the only writers of slots and inflight;
// both re-derive cpu's bit of held.
func (g *Class) setSlot(cpu hw.CPUID, t *kernel.Thread) {
	g.slots[cpu] = t
	g.held.SetTo(cpu, t != nil || g.inflight[cpu] != nil)
}

func (g *Class) setInflight(cpu hw.CPUID, t *kernel.Thread) {
	g.inflight[cpu] = t
	g.held.SetTo(cpu, t != nil || g.slots[cpu] != nil)
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
	gt := &ghostThread{enc: enc, q: enc.defaultQueue}
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
	if len(g.observers) > 0 {
		g.obsMsgIntent(gt.enc, t.TID(), mt)
	}
	old := gt.tseq
	if !(g.Mut.SkipTseqBump && mt == MsgThreadWakeup) {
		gt.tseq++
	}
	if len(g.observers) > 0 {
		g.obsTseq(gt.enc, t, old, gt.tseq, mt)
	}
	gt.sw.Seq = gt.tseq
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
	if g.Mut.DropWakeup && mt == MsgThreadWakeup {
		// Seeded lost-wakeup bug: the message never reaches the queue.
		return
	}
	gt.pendingMsgs++
	g.MsgsPosted++
	if mt == MsgThreadPreempted {
		if tr := g.k.Tracer(); tr != nil {
			tr.Preemption(g.k.Now(), gt.enc.id, uint64(t.TID()), t.LastCPU())
		}
	}
	gt.q.post(Message{
		Type:     mt,
		TID:      t.TID(),
		Seq:      gt.tseq,
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

// clearSlot removes t from any latch slot it occupies.
func (g *Class) clearSlot(t *kernel.Thread) {
	gt := gstate(t)
	if gt == nil || !gt.latched {
		return
	}
	gt.latched = false
	found := false
	for i, s := range g.slots {
		if s == t {
			g.setSlot(hw.CPUID(i), nil)
			found = true
			g.obsUnlatched(gt.enc, hw.CPUID(i), t, "clear")
		}
	}
	for i, s := range g.inflight {
		if s == t {
			g.setInflight(hw.CPUID(i), nil)
			found = true
			g.obsUnlatched(gt.enc, hw.CPUID(i), t, "clear")
		}
	}
	if !found {
		// Latched flag without a slot (e.g. inflight entry already taken
		// over): still announce the release so checkers stay consistent.
		g.obsUnlatched(gt.enc, hw.NoCPU, t, "clear")
	}
}

// Queued implements kernel.Class: only a latched transaction gives ghOSt
// a claim on a CPU.
func (g *Class) Queued(c *kernel.CPU) bool {
	return g.slots[c.ID] != nil
}

// Eligible implements kernel.Class: ghOSt threads run to completion until
// something preempts them.
func (g *Class) Eligible(c *kernel.CPU, running *kernel.Thread) bool { return true }

// PickNext implements kernel.Class: install the latched thread, demoting
// (and notifying) a running ghOSt thread if the transaction preempts it.
func (g *Class) PickNext(c *kernel.CPU, prev *kernel.Thread) *kernel.Thread {
	s := g.slots[c.ID]
	if s == nil {
		return prev
	}
	if s == prev {
		g.setSlot(c.ID, nil)
		sgt := gstate(s)
		sgt.latched = false
		g.obsUnlatched(sgt.enc, c.ID, s, "switch-in")
		g.obsInstalled(sgt.enc, c.ID, s)
		return prev
	}
	if s.State() != kernel.StateRunnable || !s.Affinity().Has(c.ID) {
		// The latched thread changed state between commit and install.
		g.setSlot(c.ID, nil)
		if gt := gstate(s); gt != nil {
			gt.latched = false
			g.obsUnlatched(gt.enc, c.ID, s, "stale")
		}
		return prev
	}
	g.setSlot(c.ID, nil)
	gt := gstate(s)
	gt.latched = false
	gt.runnable = false
	gt.sw.OnCPU = true
	gt.sw.CPU = c.ID
	g.obsUnlatched(gt.enc, c.ID, s, "switch-in")
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
		g.MsgsPosted++
		q.post(Message{Type: MsgTimerTick, CPU: c.ID})
	}
}

// onIdle is the BPF fastpath (§3.2): when a CPU in an enclave goes idle
// with no latched transaction, the enclave's BPF program may commit a
// thread immediately, closing the agent's scheduling gap.
func (g *Class) onIdle(c *kernel.CPU) {
	enc := g.cpuOwner[c.ID]
	if enc == nil || enc.destroyed || enc.bpf == nil || g.slots[c.ID] != nil {
		return
	}
	t := enc.bpf.PickNextOnIdle(c.ID)
	if t == nil {
		return
	}
	gt := gstate(t)
	if gt == nil || gt.enc != enc || gt.latched || !gt.runnable ||
		t.State() != kernel.StateRunnable || !t.Affinity().Has(c.ID) {
		return
	}
	gt.latched = true
	gt.runnable = false
	g.setSlot(c.ID, t)
	g.obsLatched(enc, c.ID, t)
	g.BPFCommits++
	if tr := g.k.Tracer(); tr != nil {
		tr.BPFCommit(g.k.Now(), enc.id, uint64(t.TID()), c.ID)
	}
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

func (g *Class) String() string {
	return fmt.Sprintf("ghost{enclaves=%d msgs=%d txns=%d/%d}",
		len(g.Enclaves()), g.MsgsPosted, g.TxnsOK, g.TxnsOK+g.TxnsFailed)
}
