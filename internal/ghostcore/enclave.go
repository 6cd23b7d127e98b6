package ghostcore

import (
	"fmt"
	"sort"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// BPFProgram is the interface of the agent-supplied program attached to
// pick_next_task (§3.2): when a CPU idles with no pending transaction,
// the kernel asks it for a thread to run. Implementations are typically
// backed by a shared ring the agent keeps filled.
type BPFProgram interface {
	PickNextOnIdle(cpu hw.CPUID) *kernel.Thread
}

// Agent is the kernel-side handle of an attached userspace agent thread:
// its CPU, its Aseq status word, and its queue association.
type Agent struct {
	cpu    hw.CPUID
	thread *kernel.Thread
	queue  *Queue     // queue this agent consumes (for TIMER_TICK routing)
	sw     StatusWord // sw.Seq is the agent's Aseq

	attached bool
}

// CPU returns the agent's home CPU.
func (a *Agent) CPU() hw.CPUID { return a.cpu }

// Thread returns the agent's kernel thread.
func (a *Agent) Thread() *kernel.Thread { return a.thread }

// Seq returns the agent's current Aseq, as read from its status word
// (shared memory, no syscall).
func (a *Agent) Seq() uint64 { return a.sw.Seq }

// Enclave is a CPU partition running one scheduling policy (§3, Fig 2).
type Enclave struct {
	id   int
	g    *Class
	k    *kernel.Kernel
	cpus kernel.Mask

	defaultQueue *Queue
	queues       []*Queue

	threads map[kernel.TID]*kernel.Thread
	agents  map[hw.CPUID]*Agent

	bpf BPFProgram

	// agentIdle and agentPressure are the running centralized agent
	// generation's callbacks (SetAgentHooks), nil while none runs.
	agentIdle     func()
	agentPressure func(*kernel.CPU)

	// DeliverTicks enables TIMER_TICK message delivery (§3.1).
	DeliverTicks bool

	// WatchdogTimeout, when non-zero, destroys the enclave if a runnable
	// thread goes unscheduled longer than this (§3.4).
	WatchdogTimeout sim.Duration
	watchdog        sim.Event // the pending starvation scan

	// upgradePending suppresses the crash fallback while a new agent
	// generation is waiting to take over (§3.4 dynamic upgrades).
	upgradePending bool
	// upgradeDeadline is the pending upgrade's attach timeout
	// (DefaultUpgradeTimeout after BeginUpgrade).
	upgradeDeadline sim.Event
	tickless        bool

	destroyed    bool
	destroyCause error
}

// NewEnclave partitions the given CPUs into a new enclave. Panics if any
// CPU already belongs to a live enclave.
func NewEnclave(g *Class, cpus kernel.Mask) *Enclave {
	if cpus.Empty() {
		panic("ghostcore: enclave with no CPUs")
	}
	e := &Enclave{
		id:      g.nextEncID,
		g:       g,
		k:       g.k,
		cpus:    cpus,
		threads: make(map[kernel.TID]*kernel.Thread),
		agents:  make(map[hw.CPUID]*Agent),
	}
	g.nextEncID++
	cpus.ForEach(func(c hw.CPUID) bool {
		if g.cpuOwner[c] != nil {
			panic(fmt.Sprintf("ghostcore: cpu %d already in enclave %d", c, g.cpuOwner[c].id))
		}
		g.cpuOwner[c] = e
		return true
	})
	e.defaultQueue = e.CreateQueue("default")
	g.enclaves = append(g.enclaves, e)
	return e
}

// ID returns the enclave id.
func (e *Enclave) ID() int { return e.id }

// CPUs returns the enclave's CPU mask.
func (e *Enclave) CPUs() kernel.Mask { return e.cpus }

// Destroyed reports whether the enclave has been torn down.
func (e *Enclave) Destroyed() bool { return e.destroyed }

// DestroyCause reports why the enclave was torn down, nil while it is
// alive. The cause wraps one of the typed sentinels (ErrWatchdog,
// ErrAgentCrash, ErrUpgradeTimeout, ErrDestroyed), so callers classify
// it with errors.Is.
func (e *Enclave) DestroyCause() error { return e.destroyCause }

// DefaultQueue returns the queue threads are implicitly associated with.
func (e *Enclave) DefaultQueue() *Queue { return e.defaultQueue }

// CreateQueue creates a message queue (CREATE_QUEUE).
func (e *Enclave) CreateQueue(name string) *Queue {
	q := &Queue{enc: e, name: name}
	e.queues = append(e.queues, q)
	return q
}

// DestroyQueue removes a queue (DESTROY_QUEUE). Threads associated with
// it fall back to the default queue. Its undrained messages go with it,
// so they no longer count against their threads in AssociateQueue.
//
//ghostlint:root DESTROY_QUEUE is an agent API call of the paper's Table 1; no bundled policy destroys a queue
func (e *Enclave) DestroyQueue(q *Queue) {
	q.dead = true
	for ; q.head != q.tail; q.head++ {
		q.uncount(q.buf[q.head&uint64(len(q.buf)-1)])
	}
	for _, t := range e.threads {
		if gt := gstate(t); gt != nil && gt.q == q {
			gt.q = e.defaultQueue
		}
	}
	for i, qq := range e.queues {
		if qq == q {
			e.queues = append(e.queues[:i], e.queues[i+1:]...)
			return
		}
	}
}

// AssociateQueue redirects a thread's messages to q (ASSOCIATE_QUEUE).
// Per §3.1 it fails if the thread still has undrained messages in its
// current queue, in which case the agent must drain and retry.
func (e *Enclave) AssociateQueue(t *kernel.Thread, q *Queue) error {
	gt := gstate(t)
	if gt == nil || gt.enc != e {
		return fmt.Errorf("ghostcore: thread %v not in enclave %d", t, e.id)
	}
	if gt.pendingMsgs > 0 {
		return fmt.Errorf("ghostcore: thread %v has %d pending messages", t, gt.pendingMsgs)
	}
	gt.q = q
	return nil
}

// ConfigQueueWakeup makes q wake agent a when messages are produced
// (CONFIG_QUEUE_WAKEUP); pass nil to make it polled (centralized model).
// The agent's Aseq advances on every post either way.
func (e *Enclave) ConfigQueueWakeup(q *Queue, a *Agent, wake bool) {
	q.seqAgent = a
	if wake {
		q.wakeAgent = a
	} else {
		q.wakeAgent = nil
	}
	if a != nil {
		a.queue = q
	}
}

// SpawnThread spawns a new thread directly into this enclave.
func (e *Enclave) SpawnThread(opts kernel.SpawnOpts, body kernel.ThreadFunc) *kernel.Thread {
	if e.destroyed {
		panic("ghostcore: SpawnThread on destroyed enclave")
	}
	opts.Class = e.g
	e.g.pendingEnclave = e
	t := e.k.Spawn(opts, body)
	e.g.pendingEnclave = nil
	return t
}

// Threads returns the threads currently managed by the enclave, in TID
// order (map order would leak scheduling nondeterminism into upgrade
// rebuilds and the destroy fallback). A new agent generation uses this
// to rebuild its state after an upgrade.
func (e *Enclave) Threads() []*kernel.Thread {
	out := make([]*kernel.Thread, 0, len(e.threads))
	for _, t := range e.threads {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TID() < out[j].TID() })
	return out
}

// RunnableThreads returns managed threads that are runnable and waiting
// for a scheduling decision, in TID order.
func (e *Enclave) RunnableThreads() []*kernel.Thread {
	var out []*kernel.Thread
	for _, t := range e.threads {
		if gt := gstate(t); gt != nil && gt.runnable && gt.latch == hw.NoCPU {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TID() < out[j].TID() })
	return out
}

// StatusWord returns a thread's status word for shared-memory polling.
func (e *Enclave) StatusWord(t *kernel.Thread) *StatusWord {
	gt := gstate(t)
	if gt == nil {
		return nil
	}
	return &gt.sw
}

// ThreadSeq returns the thread's current Tseq.
func (e *Enclave) ThreadSeq(t *kernel.Thread) uint64 {
	gt := gstate(t)
	if gt == nil {
		return 0
	}
	return gt.sw.Seq
}

// AttachAgent registers an agent thread for cpu (AGENT_INIT). The agent
// thread must be pinned to cpu and scheduled by the agent class.
func (e *Enclave) AttachAgent(cpu hw.CPUID, t *kernel.Thread) *Agent {
	if !e.cpus.Has(cpu) {
		panic(fmt.Sprintf("ghostcore: agent cpu %d outside enclave", cpu))
	}
	// Aseq starts at 1 so that 0 always means "no sequence check".
	a := &Agent{cpu: cpu, thread: t, attached: true, sw: StatusWord{Seq: 1}}
	e.agents[cpu] = a
	if e.upgradePending {
		e.upgradePending = false
		e.upgradeDeadline.Cancel()
		e.g.obsLifecycle(e, "upgrade-attach", fmt.Sprintf("cpu%d", cpu))
	}
	return a
}

// DetachAgent removes an agent (exit or crash). When the last agent
// detaches without a pending upgrade, the enclave falls back: it is
// destroyed and all threads return to the default scheduler (§3.4).
func (e *Enclave) DetachAgent(a *Agent) {
	if !a.attached {
		return
	}
	a.attached = false
	if e.agents[a.cpu] == a {
		delete(e.agents, a.cpu)
	}
	if len(e.agents) == 0 && !e.upgradePending && !e.destroyed {
		e.DestroyWith(fmt.Errorf("%w: all agents exited", ErrAgentCrash))
	}
}

// DefaultUpgradeTimeout bounds how long an upgrade may stay pending
// before the enclave gives up on the new generation and falls back to
// CFS instead of stranding its threads.
const DefaultUpgradeTimeout = 50 * sim.Millisecond

// BeginUpgrade announces that a new agent generation will attach shortly:
// the crash fallback is suppressed so threads stay in the enclave across
// the handover (§3.4 "replacing agents while keeping the enclave").
//
// The suppression is bounded: if no successor attaches within
// DefaultUpgradeTimeout of the last BeginUpgrade the enclave is
// destroyed and its threads fall back to CFS, so a failed upgrade
// degrades like a crash instead of stranding runnable threads forever.
func (e *Enclave) BeginUpgrade() {
	if e.destroyed {
		return
	}
	e.upgradePending = true
	e.g.obsLifecycle(e, "upgrade-begin", "")
	e.upgradeDeadline.Cancel()
	e.upgradeDeadline = e.k.Engine().AtCall(e.k.Now()+DefaultUpgradeTimeout, upgradeTimedOutFn, e)
}

// SkipUpgrade tells the enclave's observers that a forced upgrade left
// the running generation in place, for the given reason.
func (e *Enclave) SkipUpgrade(reason string) { e.g.obsLifecycle(e, "upgrade-skipped", reason) }

// upgradeTimedOutFn dispatches an upgrade-attach timeout to its enclave,
// passed as the event argument, so arming the deadline allocates no
// closure.
func upgradeTimedOutFn(a any) { a.(*Enclave).upgradeTimedOut() }

// upgradeTimedOut fires when a pending upgrade's successor never
// attached: re-arm the crash fallback and, if the old generation is
// already gone, destroy the enclave now (CFS fallback).
func (e *Enclave) upgradeTimedOut() {
	if e.destroyed || !e.upgradePending {
		return
	}
	e.upgradePending = false
	e.g.obsLifecycle(e, "upgrade-timeout", "")
	if len(e.agents) == 0 {
		e.DestroyWith(ErrUpgradeTimeout)
	}
}

// AgentsAttached reports how many agents are currently attached; new
// agent generations epoll on this reaching zero before taking over.
func (e *Enclave) AgentsAttached() int { return len(e.agents) }

// tickQueue picks the queue receiving cpu's TIMER_TICK messages.
func (e *Enclave) tickQueue(cpu hw.CPUID) *Queue {
	if a, ok := e.agents[cpu]; ok && a.queue != nil {
		return a.queue
	}
	// Centralized model: ticks flow to whichever queue the (single)
	// attached agent consumes, else the default queue. Fold to the
	// lowest-CPU agent so multi-agent enclaves pick the same queue on
	// every run regardless of map iteration order.
	best := hw.NoCPU
	for cpu, a := range e.agents {
		if a.queue != nil && (best == hw.NoCPU || cpu < best) {
			best = cpu
		}
	}
	if best != hw.NoCPU {
		return e.agents[best].queue
	}
	return e.defaultQueue
}

// SetBPF attaches the enclave's BPF pick_next_task program (§3.2).
func (e *Enclave) SetBPF(p BPFProgram) { e.bpf = p }

// SetAgentHooks installs a centralized agent generation's callbacks:
// idle runs when an enclave CPU goes idle (after the BPF fastpath), and
// pressure when non-ghOSt work queues behind an enclave CPU's current
// thread. The class calls them from its one idle and one pressure hook,
// so agent generations add no kernel hooks. Pass nil, nil when the
// generation stops.
func (e *Enclave) SetAgentHooks(idle func(), pressure func(*kernel.CPU)) {
	e.agentIdle, e.agentPressure = idle, pressure
}

// SetTickless disables (or re-enables) timer ticks on every enclave CPU
// (§5): with a spinning global agent making all decisions, per-CPU ticks
// only cause VM-exit jitter for guest workloads. Re-enabled
// automatically when the enclave is destroyed.
func (e *Enclave) SetTickless(on bool) {
	e.tickless = on
	e.cpus.ForEach(func(c hw.CPUID) bool {
		e.k.SetTickless(c, on)
		return true
	})
}

// LatchedFor returns the thread committed-but-not-yet-switched-in on
// cpu, nil if none: either an installed latch awaiting pick, or a commit
// whose IPI is still in flight. Agents and policies use this to avoid
// double-committing a CPU. It is non-nil only on Held CPUs, so callers
// scanning many CPUs test Held first.
func (e *Enclave) LatchedFor(cpu hw.CPUID) *kernel.Thread {
	if e.g.Mut.DoubleLatch || !e.cpus.Has(cpu) {
		// Under the seeded double-latch bug LatchedFor claims no commit
		// is pending, so agents and policies commit a second thread to
		// the CPU.
		return nil
	}
	return e.g.latches[cpu].t
}

// Held returns the enclave CPUs holding a latch, installed or in flight:
// exactly the CPUs where LatchedFor returns non-nil. Under the seeded
// DoubleLatch mutation LatchedFor claims no latch, and so does Held.
func (e *Enclave) Held() kernel.Mask {
	if e.g.Mut.DoubleLatch {
		return kernel.Mask{}
	}
	return e.g.held.And(e.cpus)
}

// DebugThreadState reports the ghOSt-side view of a thread (runnable,
// latched) for diagnostics and tests.
func (e *Enclave) DebugThreadState(t *kernel.Thread) (runnable, latched bool) {
	gt := gstate(t)
	if gt == nil {
		return false, false
	}
	return gt.runnable, gt.latch != hw.NoCPU
}

// DebugRunnableSince returns when the thread last entered the
// runnable-waiting state (zero if it never has). Invariant checkers use
// it to bound scheduling-decision latency.
func (e *Enclave) DebugRunnableSince(t *kernel.Thread) sim.Time {
	gt := gstate(t)
	if gt == nil {
		return 0
	}
	return gt.runnableSince
}

// TxnCreate opens a transaction to run t on cpu (TXN_CREATE).
func (e *Enclave) TxnCreate(tid kernel.TID, cpu hw.CPUID) *Txn {
	return &Txn{TID: tid, CPU: cpu}
}

// TxnsCommit validates and applies a group of transactions
// (TXNS_COMMIT, §3.2). Statuses are set synchronously, matching the
// syscall semantics; committed remote transactions take effect on their
// target CPUs after the (batched) IPI propagation delay from the cost
// model. a is the committing agent (used for Aseq validation and IPI
// distance); it may be nil for kernel-internal commits.
func (e *Enclave) TxnsCommit(a *Agent, txns []*Txn) {
	if e.destroyed {
		for _, txn := range txns {
			txn.Status = TxnInvalid
		}
		return
	}
	n := len(txns)
	if n > 1 {
		e.g.obsGroupCommit(e, n, false)
	}
	for _, txn := range txns {
		e.commitOne(a, txn, n)
	}
	e.g.obsTxnGroup(e, txns, false)
}

// TxnsCommitAtomic is the synchronized group commit used by per-core
// scheduling policies (§4.5): the transactions either all commit or all
// fail (status TxnInvalid is set on otherwise-valid members of a failed
// group, mirroring the aborted-commit semantics).
func (e *Enclave) TxnsCommitAtomic(a *Agent, txns []*Txn) bool {
	if e.destroyed {
		for _, txn := range txns {
			txn.Status = TxnInvalid
		}
		return false
	}
	g := e.g
	for _, txn := range txns {
		if s, cause := e.validate(a, txn); s != TxnCommitted {
			txn.Status = s
			g.obsTxnFailed(e, txn, cause)
			for _, other := range txns {
				if other != txn && other.Status == TxnPending {
					other.Status = TxnInvalid
					g.obsTxnFailed(e, other, "group-abort")
				}
			}
			g.obsTxnGroup(e, txns, true)
			return false
		}
	}
	n := len(txns)
	g.obsGroupCommit(e, n, true)
	for _, txn := range txns {
		e.apply(a, txn, n)
	}
	g.obsTxnGroup(e, txns, true)
	return true
}

// PreemptCPU kicks the ghOSt thread currently running on cpu off the CPU
// (it returns to the agent with THREAD_PREEMPTED) and clears any latched
// transaction. Used to force a sibling idle for core scheduling.
func (e *Enclave) PreemptCPU(cpu hw.CPUID) {
	if !e.cpus.Has(cpu) {
		return
	}
	g := e.g
	if g.held.Has(cpu) {
		g.postThreadMsg(g.unlatch(cpu, "preempt-cpu"), MsgThreadPreempted)
	}
	curr := e.k.CPU(cpu).Curr()
	if curr != nil && curr.Class() == kernel.Class(g) {
		e.k.ForceOffCPU(curr)
	}
}

// validate checks a transaction without side effects. The second return
// is the ESTALE cause ("aseq" or "tseq") for tracing, empty otherwise.
func (e *Enclave) validate(a *Agent, txn *Txn) (TxnStatus, string) {
	if in := e.k.Faults(); in != nil && in.OnTxnValidate(e.k.Now(), e.id) {
		// Injected commit failure burst: the syscall reports EINVAL and
		// the policy's OnTxnFail path must re-enqueue the thread.
		return TxnInvalid, "fault"
	}
	g := e.g
	t := e.k.Thread(txn.TID)
	if t == nil {
		return TxnInvalid, ""
	}
	gt := gstate(t)
	if gt == nil || gt.enc != e {
		return TxnInvalid, ""
	}
	if !e.cpus.Has(txn.CPU) {
		return TxnCPUNotAvail, ""
	}
	if txn.AgentSeq != 0 && a != nil && a.sw.Seq > txn.AgentSeq {
		return TxnESTALE, "aseq"
	}
	if txn.ThreadSeq != 0 && gt.sw.Seq > txn.ThreadSeq {
		return TxnESTALE, "tseq"
	}
	if t.State() != kernel.StateRunnable || !gt.runnable || gt.latch != hw.NoCPU {
		return TxnThreadNotRunnable, ""
	}
	if !t.Affinity().Has(txn.CPU) {
		return TxnAffinityViolation, ""
	}
	target := e.k.CPU(txn.CPU)
	local := a != nil && a.cpu == txn.CPU
	if !local {
		if curr := target.Curr(); curr != nil && curr.Class() != kernel.Class(g) {
			// Occupied by a higher class (CFS, agents, ...): the commit
			// would never take effect promptly; fail fast.
			return TxnCPUNotAvail, ""
		}
	}
	return TxnCommitted, ""
}

// commitOne validates one transaction and, if accepted, latches the
// thread and schedules the install on the target CPU.
func (e *Enclave) commitOne(a *Agent, txn *Txn, groupSize int) {
	if s, cause := e.validate(a, txn); s != TxnCommitted {
		txn.Status = s
		e.g.obsTxnFailed(e, txn, cause)
		return
	}
	e.apply(a, txn, groupSize)
}

// installFire adapts doInstall to the engine's pre-bound callback shape.
func (g *Class) installFire(a any) { g.doInstall(a.(*latch)) }

// doInstall performs the target-CPU side of a committed transaction: the
// latch stops being in flight and the CPU runs a scheduling pass. Every
// path that frees a latch cancels its install, so l still holds the
// committed thread.
func (g *Class) doInstall(l *latch) {
	l.inflight = false
	e := l.e
	if curr := e.k.CPU(l.cpu).Curr(); curr != nil && curr.Class() != kernel.Class(g) &&
		!(l.local && l.a != nil && curr == l.a.thread) {
		// The CPU was taken by a higher class while the IPI was in
		// flight (a local commit's own agent is expected and about
		// to yield); drop the latch and hand the thread back to the
		// agent as a preemption rather than parking it forever.
		g.postThreadMsg(g.unlatch(l.cpu, "cpu-taken"), MsgThreadPreempted)
		return
	}
	e.k.Resched(l.cpu)
}

// apply latches a validated transaction and schedules its install. A
// commit to a CPU that already holds a latch displaces it: the old
// thread goes back to the agent as THREAD_PREEMPTED, as the kernel
// hands back a displaced latched task.
func (e *Enclave) apply(a *Agent, txn *Txn, groupSize int) {
	g := e.g
	t := e.k.Thread(txn.TID)
	local := a != nil && a.cpu == txn.CPU
	txn.Status = TxnCommitted
	g.TxnsOK++
	l := &g.latches[txn.CPU]
	if l.t != nil {
		if g.Mut.DoubleLatch {
			// Seeded double-latch bug: the old latch is overwritten with
			// no handback and no observer event, so its thread is lost,
			// which the status-word oracle must catch.
			l.ipi.Cancel()
			gstate(l.t).latch = hw.NoCPU
		} else {
			g.Enqueue(g.unlatch(txn.CPU, "displaced"), txn.CPU, kernel.EnqPreempt)
		}
	}
	g.setLatch(latch{cpu: txn.CPU, t: t, inflight: true, e: e, local: local, a: a})
	if local {
		g.obsLatched(e, txn.CPU, t, Commit{Group: groupSize, Local: true})
		g.doInstall(l)
		return
	}
	cross := a != nil && e.k.Topology().Dist(a.cpu, txn.CPU) == hw.DistRemote
	delay := e.k.Cost().RemoteCommitTargetCost(groupSize, cross)
	if in := e.k.Faults(); in != nil {
		lost, extra := in.OnIPI(e.k.Now(), e.id)
		if lost {
			// A lost reschedule IPI is recovered when the next timer tick
			// on the target CPU notices the pending latch: model it as a
			// deferral by one full tick period.
			extra += e.k.Cost().TickPeriod
		}
		delay += extra
	}
	g.obsLatched(e, txn.CPU, t, Commit{Group: groupSize, IPI: delay})
	l.ipi = e.k.Engine().AfterCall(delay, g.installFn, l)
}

// TxnsRecall revokes committed transactions whose target threads have
// not yet been switched in (TXNS_RECALL, Table 1). Recalled threads
// return to the runnable-waiting state; the count of recalls is
// returned. Transactions whose thread already started running are left
// alone.
//
//ghostlint:root TXNS_RECALL is an agent API call of the paper's Table 1; no bundled policy recalls a commit
func (e *Enclave) TxnsRecall(txns []*Txn) int {
	n := 0
	for _, txn := range txns {
		if txn.Status != TxnCommitted {
			continue
		}
		t := e.k.Thread(txn.TID)
		if t == nil {
			continue
		}
		if gt := gstate(t); gt == nil || gt.enc != e || gt.latch != txn.CPU {
			continue
		}
		e.g.unlatch(txn.CPU, "recall")
		txn.Status = TxnRecalled
		e.g.obsTxnRecalled(e, txn)
		n++
	}
	return n
}

// SetHint attaches an application-supplied scheduling hint to a thread
// (the "optional scheduling hints" channel of Fig 1). Hints are opaque
// to the kernel; policies read them with Hint.
//
//ghostlint:root the application-to-agent scheduling hints of the paper's Fig 1; no bundled workload sets one
func (e *Enclave) SetHint(t *kernel.Thread, hint any) {
	if gt := gstate(t); gt != nil && gt.enc == e {
		gt.hint = hint
	}
}

// Hint returns the thread's current scheduling hint, nil if none.
//
//ghostlint:root the agent side of the paper's Fig 1 scheduling hints; no bundled policy reads one
func (e *Enclave) Hint(t *kernel.Thread) any {
	if gt := gstate(t); gt != nil && gt.enc == e {
		return gt.hint
	}
	return nil
}

// Destroy tears the enclave down: agents are killed, all managed threads
// fall back to the default scheduler, and the CPUs are released (§3.4).
//
//ghostlint:root enclave destruction is the paper's §3.4 fallback call (the enclave's destroy control); bundled runs destroy only with a typed cause via DestroyWith
func (e *Enclave) Destroy() { e.DestroyWith(ErrDestroyed) }

// DestroyWith records why the enclave died. cause should wrap one of the
// typed sentinels (ErrWatchdog, ErrAgentCrash, ErrUpgradeTimeout,
// ErrDestroyed) so DestroyCause stays classifiable with errors.Is.
func (e *Enclave) DestroyWith(cause error) {
	if e.destroyed {
		return
	}
	e.destroyed = true
	e.destroyCause = cause
	e.g.obsLifecycle(e, "destroy", cause.Error())
	e.watchdog.Cancel()
	e.upgradeDeadline.Cancel()
	if e.tickless {
		e.SetTickless(false)
	}
	// Capture the managed set before the fallback empties it, so
	// observers can audit that every thread left the ghOSt class.
	managed := e.Threads()
	// Free the latches, cancelling their pending installs.
	e.cpus.ForEach(func(c hw.CPUID) bool {
		if e.g.held.Has(c) {
			e.g.unlatch(c, "destroy")
		}
		e.g.cpuOwner[c] = nil
		return true
	})
	// Kill agents in CPU order: each Kill schedules kernel work, so
	// map-order iteration would leak into the event sequence.
	cpus := make([]int, 0, len(e.agents))
	for cpu := range e.agents {
		cpus = append(cpus, int(cpu))
	}
	sort.Ints(cpus)
	for _, cpu := range cpus {
		a := e.agents[hw.CPUID(cpu)]
		a.attached = false
		if a.thread != nil {
			e.k.Kill(a.thread)
		}
	}
	e.agents = map[hw.CPUID]*Agent{}
	// Threads fall back to the default scheduler, still fully
	// functional (§3.4).
	for _, t := range e.Threads() {
		if t.State() != kernel.StateDead {
			e.k.SetClass(t, e.g.fallback)
		}
	}
	e.threads = map[kernel.TID]*kernel.Thread{}
	e.g.obsDestroyed(e, cause, managed)
}

// EnableWatchdog starts the enclave watchdog (§3.4): if any runnable
// thread waits longer than timeout for a scheduling decision, the
// enclave is destroyed and its threads fall back to the default
// scheduler. Enabling it again replaces the timeout.
func (e *Enclave) EnableWatchdog(timeout sim.Duration) {
	if timeout <= 0 {
		panic("ghostcore: watchdog timeout must be positive")
	}
	e.WatchdogTimeout = timeout
	e.g.obsLifecycle(e, "watchdog-armed", timeout.String())
	e.watchdog.Cancel()
	e.armWatchdog()
}

// armWatchdog schedules the next starvation scan a quarter of the
// timeout from now, but no sooner than 1 ms.
func (e *Enclave) armWatchdog() {
	period := e.WatchdogTimeout / 4
	if period < sim.Millisecond {
		period = sim.Millisecond
	}
	e.watchdog = e.k.Engine().AfterCall(period, watchdogFire, e)
}

// watchdogFire is the periodic starvation scan behind EnableWatchdog
// (a snapshot event kind of Class.SnapshotEvents). It destroys the enclave over the
// first starved thread, and otherwise arms the next scan.
func watchdogFire(a any) {
	e := a.(*Enclave)
	if e.destroyed {
		return
	}
	now := e.k.Now()
	// Sorted iteration (Threads): the destroy reason names the first
	// starved thread, and that choice must not follow map order into the
	// trace.
	for _, t := range e.Threads() {
		gt := gstate(t)
		if gt != nil && gt.runnable && gt.latch == hw.NoCPU && now-gt.runnableSince > e.WatchdogTimeout {
			e.g.obsLifecycle(e, "watchdog-fired", t.Name())
			e.DestroyWith(fmt.Errorf("%w: %v runnable for %v", ErrWatchdog, t, now-gt.runnableSince))
			return
		}
	}
	e.armWatchdog()
}
