package ghostcore

import (
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// The protocol events of the ghOSt class, one interface each; an
// observer implements those it watches. Every invariant oracle
// (internal/check) and the tracer (internal/trace) are observers. All
// callbacks run synchronously inside the simulator event that caused
// them, so an observer sees a globally consistent snapshot.
type (
	// TseqObserver: a thread message bumped (or, under a seeded mutation,
	// failed to bump) the thread's Tseq. It fires once the status word
	// shows the message, before the message is queued; a
	// THREAD_PREEMPTED one is the thread's preemption.
	TseqObserver interface {
		Tseq(e *Enclave, t *kernel.Thread, old, new uint64, mt MsgType)
	}
	// AseqObserver: a queue delivery advanced an agent's Aseq.
	AseqObserver interface {
		Aseq(e *Enclave, a *Agent, old, new uint64)
	}
	// MsgIntentObserver: the kernel decided to post a thread message,
	// before fault injection can drop, delay, or duplicate it.
	MsgIntentObserver interface {
		MsgIntent(e *Enclave, tid kernel.TID, mt MsgType)
	}
	// MsgDeliveredObserver: a message landed in queue q, which now holds
	// it. dup marks the extra copy of a fault-duplicated message; delayed
	// marks a delivery that was previously announced via MsgDelayed.
	MsgDeliveredObserver interface {
		MsgDelivered(e *Enclave, q *Queue, m Message, dup, delayed bool)
	}
	// MsgFaultDroppedObserver: a fault window swallowed a message.
	MsgFaultDroppedObserver interface{ MsgFaultDropped(e *Enclave, m Message) }
	// MsgDelayedObserver: a fault window deferred a message's delivery.
	MsgDelayedObserver interface{ MsgDelayed(e *Enclave, m Message) }
	// MsgDiscardedObserver: a message was posted to a dead queue.
	MsgDiscardedObserver interface{ MsgDiscarded(e *Enclave, m Message) }
	// MsgDrainedObserver: the agent on cpu consumed a message.
	MsgDrainedObserver interface {
		MsgDrained(e *Enclave, m Message, cpu hw.CPUID)
	}
	// LatchedObserver: a commit latched t for cpu; c says how.
	LatchedObserver interface {
		Latched(e *Enclave, cpu hw.CPUID, t *kernel.Thread, c Commit)
	}
	// UnlatchedObserver: a latch was released; why names the path
	// (switch-in, displaced, recall, clear, destroy, ...).
	UnlatchedObserver interface {
		Unlatched(e *Enclave, cpu hw.CPUID, t *kernel.Thread, why string)
	}
	// InstalledObserver: the scheduler switch-in consumed a latch.
	InstalledObserver interface {
		Installed(e *Enclave, cpu hw.CPUID, t *kernel.Thread)
	}
	// TxnFailedObserver: validation rejected txn, whose Status says
	// why. cause names a finer reason: "aseq" or "tseq" for a stale
	// sequence, "fault" for an injected failure, "group-abort" for an
	// atomic group's valid member; it is empty otherwise.
	TxnFailedObserver interface {
		TxnFailed(e *Enclave, txn *Txn, cause string)
	}
	// TxnRecalledObserver: TXNS_RECALL revoked txn before its install.
	TxnRecalledObserver interface {
		TxnRecalled(e *Enclave, txn *Txn)
	}
	// GroupCommitObserver: a commit of n > 1 transactions (TXNS_COMMIT)
	// or an atomic group that passed validation begins.
	GroupCommitObserver interface {
		GroupCommit(e *Enclave, n int, atomic bool)
	}
	// TxnGroupObserver: a TXNS_COMMIT(_ATOMIC) finished with final statuses.
	TxnGroupObserver interface {
		TxnGroup(e *Enclave, txns []*Txn, atomic bool)
	}
	// LifecycleObserver: the enclave passed a lifecycle step: event is
	// watchdog-armed, watchdog-fired, destroy, upgrade-begin,
	// upgrade-attach, upgrade-timeout or upgrade-skipped, and detail
	// qualifies it (the timeout, the starved thread, the cause, the CPU).
	LifecycleObserver interface {
		Lifecycle(e *Enclave, event, detail string)
	}
	// AgentStepObserver: the agent on cpu finished one scheduling-loop
	// step that cost cost, drained msgs messages and committed txns
	// transactions. mode is the agent model, "global" or "local".
	AgentStepObserver interface {
		AgentStep(e *Enclave, cpu hw.CPUID, cost sim.Duration, msgs, txns int, mode string)
	}
	// DestroyedObserver: enclave teardown ended; threads is the managed
	// set captured before the CFS fallback ran.
	DestroyedObserver interface {
		Destroyed(e *Enclave, cause error, threads []*kernel.Thread)
	}
)

// observers holds one list per protocol event, each in registration
// order. With no observer of an event, its emission is a loop over an
// empty list.
type observers struct {
	tseq            []TseqObserver
	aseq            []AseqObserver
	msgIntent       []MsgIntentObserver
	msgDelivered    []MsgDeliveredObserver
	msgFaultDropped []MsgFaultDroppedObserver
	msgDelayed      []MsgDelayedObserver
	msgDiscarded    []MsgDiscardedObserver
	msgDrained      []MsgDrainedObserver
	latched         []LatchedObserver
	unlatched       []UnlatchedObserver
	installed       []InstalledObserver
	txnFailed       []TxnFailedObserver
	txnRecalled     []TxnRecalledObserver
	groupCommit     []GroupCommitObserver
	txnGroup        []TxnGroupObserver
	lifecycle       []LifecycleObserver
	agentStep       []AgentStepObserver
	destroyed       []DestroyedObserver
}

// Commit describes the commit behind a latch.
type Commit struct {
	// Group is the size of the transaction's commit batch; 0 marks a
	// latch of the BPF fastpath, which has no transaction.
	Group int
	// Local marks an agent's commit to its own CPU, installed at once.
	Local bool
	// IPI is a remote commit's reschedule-IPI delay until install,
	// injected loss and delay included.
	IPI sim.Duration
}

// AddObserver files o, once, under every protocol event whose interface
// it implements. An observer that implements none is never called.
func (g *Class) AddObserver(o any) {
	l := &g.obs
	addTo(&l.tseq, o)
	addTo(&l.aseq, o)
	addTo(&l.msgIntent, o)
	addTo(&l.msgDelivered, o)
	addTo(&l.msgFaultDropped, o)
	addTo(&l.msgDelayed, o)
	addTo(&l.msgDiscarded, o)
	addTo(&l.msgDrained, o)
	addTo(&l.latched, o)
	addTo(&l.unlatched, o)
	addTo(&l.installed, o)
	addTo(&l.txnFailed, o)
	addTo(&l.txnRecalled, o)
	addTo(&l.groupCommit, o)
	addTo(&l.txnGroup, o)
	addTo(&l.lifecycle, o)
	addTo(&l.agentStep, o)
	addTo(&l.destroyed, o)
}

func addTo[T any](list *[]T, o any) {
	if x, ok := o.(T); ok {
		*list = append(*list, x)
	}
}

// Mutations are intentionally seeded protocol bugs, used only by the
// invariant checker's mutation tests to prove the oracles catch real
// defects. All fields are false in normal operation.
type Mutations struct {
	// SkipTseqBump posts THREAD_WAKEUP messages without advancing Tseq.
	SkipTseqBump bool
	// DropWakeup silently discards THREAD_WAKEUP messages outside any
	// fault window (a classic lost-wakeup bug).
	DropWakeup bool
	// DoubleLatch makes LatchedFor lie (report no pending latch) and
	// makes a commit to a held CPU overwrite its latch without handing
	// the old thread back (its install is cancelled), so the old thread
	// is silently lost.
	DoubleLatch bool
}

func (g *Class) obsTseq(e *Enclave, t *kernel.Thread, old, new uint64, mt MsgType) {
	for _, o := range g.obs.tseq {
		o.Tseq(e, t, old, new, mt)
	}
}

func (g *Class) obsAseq(e *Enclave, a *Agent, old, new uint64) {
	for _, o := range g.obs.aseq {
		o.Aseq(e, a, old, new)
	}
}

func (g *Class) obsMsgIntent(e *Enclave, tid kernel.TID, mt MsgType) {
	for _, o := range g.obs.msgIntent {
		o.MsgIntent(e, tid, mt)
	}
}

func (g *Class) obsMsgDelivered(e *Enclave, q *Queue, m Message, dup, delayed bool) {
	for _, o := range g.obs.msgDelivered {
		o.MsgDelivered(e, q, m, dup, delayed)
	}
}

func (g *Class) obsMsgFaultDropped(e *Enclave, m Message) {
	for _, o := range g.obs.msgFaultDropped {
		o.MsgFaultDropped(e, m)
	}
}

func (g *Class) obsMsgDelayed(e *Enclave, m Message) {
	for _, o := range g.obs.msgDelayed {
		o.MsgDelayed(e, m)
	}
}

func (g *Class) obsMsgDiscarded(e *Enclave, m Message) {
	for _, o := range g.obs.msgDiscarded {
		o.MsgDiscarded(e, m)
	}
}

func (g *Class) obsMsgDrained(e *Enclave, m Message, cpu hw.CPUID) {
	for _, o := range g.obs.msgDrained {
		o.MsgDrained(e, m, cpu)
	}
}

func (g *Class) obsLatched(e *Enclave, cpu hw.CPUID, t *kernel.Thread, c Commit) {
	for _, o := range g.obs.latched {
		o.Latched(e, cpu, t, c)
	}
}

func (g *Class) obsUnlatched(e *Enclave, cpu hw.CPUID, t *kernel.Thread, why string) {
	for _, o := range g.obs.unlatched {
		o.Unlatched(e, cpu, t, why)
	}
}

func (g *Class) obsInstalled(e *Enclave, cpu hw.CPUID, t *kernel.Thread) {
	for _, o := range g.obs.installed {
		o.Installed(e, cpu, t)
	}
}

func (g *Class) obsTxnFailed(e *Enclave, txn *Txn, cause string) {
	for _, o := range g.obs.txnFailed {
		o.TxnFailed(e, txn, cause)
	}
}

func (g *Class) obsTxnRecalled(e *Enclave, txn *Txn) {
	for _, o := range g.obs.txnRecalled {
		o.TxnRecalled(e, txn)
	}
}

func (g *Class) obsGroupCommit(e *Enclave, n int, atomic bool) {
	for _, o := range g.obs.groupCommit {
		o.GroupCommit(e, n, atomic)
	}
}

func (g *Class) obsTxnGroup(e *Enclave, txns []*Txn, atomic bool) {
	for _, o := range g.obs.txnGroup {
		o.TxnGroup(e, txns, atomic)
	}
}

func (g *Class) obsLifecycle(e *Enclave, event, detail string) {
	for _, o := range g.obs.lifecycle {
		o.Lifecycle(e, event, detail)
	}
}

// ReportAgentStep tells the enclave's observers that the agent on cpu
// finished a scheduling-loop step (see AgentStepObserver). The agent
// SDK calls it at the end of every step.
func (e *Enclave) ReportAgentStep(cpu hw.CPUID, cost sim.Duration, msgs, txns int, mode string) {
	for _, o := range e.g.obs.agentStep {
		o.AgentStep(e, cpu, cost, msgs, txns, mode)
	}
}

func (g *Class) obsDestroyed(e *Enclave, cause error, threads []*kernel.Thread) {
	for _, o := range g.obs.destroyed {
		o.Destroyed(e, cause, threads)
	}
}
