// Package trace is the observability layer of the simulator: an event
// tracer plus an always-cheap metrics aggregator. The tracer is one more
// observer of the run, attached the way the invariant oracles are: it
// hears the kernel's switch, idle and wake hooks (context switches,
// wakeups), the ghOSt class's observer events (message enqueue and
// delivery, the transaction lifecycle and its IPIs, preemptions, enclave
// watchdog, fallback and upgrades, and the agent SDK's
// wake→decision→commit steps) and the fault injector's decisions.
// Nothing in those layers knows the tracer exists, and a machine without
// one pays an empty hook or observer list at each event.
//
// The timeline is emitted as Chrome trace_event JSON (the format read by
// Perfetto and chrome://tracing): one track per CPU, one per agent, one
// per enclave. Because the simulator is deterministic, two runs with the
// same seed produce byte-identical trace files. A metrics-only tracer
// (NewMetricsOnly) skips the timeline but still aggregates counters and
// latency histograms.
package trace

import (
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Track process ids of the Chrome trace. Each pid renders as a process
// group in Perfetto; tids within it are the individual tracks.
const (
	pidCPUs     = 1 // one track per logical CPU
	pidAgents   = 2 // one track per agent (keyed by its home CPU)
	pidEnclaves = 3 // one track per enclave (messages, txn batches)
	pidFaults   = 4 // one track for the fault injector's schedule
)

// Tracer records scheduling events and aggregates metrics. Construct
// with New (full timeline) or NewMetricsOnly (counters/histograms only),
// then Attach it. Only Metrics and WriteJSON are safe on a nil *Tracer.
type Tracer struct {
	k      *kernel.Kernel // the observed machine's clock and cost model
	events bool
	evs    []event
	m      Metrics

	// open per-CPU slice state: thread id of the slice begun on each CPU
	// track, 0 when the track is idle. Indexed by CPU id, grown on demand.
	open    []uint64
	lastTs  sim.Time
	prevCPU []uint64 // last thread seen per CPU, for switch counting

	// encs caches Metrics.Enclaves by id (enclave ids are small and
	// dense), keeping the per-message/per-txn path off the map.
	encs []*EnclaveMetrics
}

// grow returns s extended so index i is addressable.
func grow(s []uint64, i int) []uint64 {
	for len(s) <= i {
		s = append(s, 0)
	}
	return s
}

// New returns a tracer that records the full event timeline plus metrics.
func New() *Tracer {
	t := NewMetricsOnly()
	t.events = true
	return t
}

// NewMetricsOnly returns a tracer that aggregates metrics but records no
// timeline events; WriteJSON on it produces only track metadata.
func NewMetricsOnly() *Tracer {
	return &Tracer{m: Metrics{Enclaves: make(map[int]*EnclaveMetrics)}}
}

// enc returns (allocating if needed) the metrics bucket for enclave id.
func (t *Tracer) enc(id int) *EnclaveMetrics {
	if id >= 0 && id < len(t.encs) && t.encs[id] != nil {
		return t.encs[id]
	}
	em := t.m.Enclaves[id]
	if em == nil {
		em = &EnclaveMetrics{ID: id}
		t.m.Enclaves[id] = em
	}
	if id >= 0 {
		for len(t.encs) <= id {
			t.encs = append(t.encs, nil)
		}
		t.encs[id] = em
	}
	return em
}

func (t *Tracer) push(e event) {
	if e.ts > t.lastTs {
		t.lastTs = e.ts
	}
	t.evs = append(t.evs, e)
}

// instant records an instant event on track (pid, tid) at the current
// time.
func (t *Tracer) instant(pid, tid int, name, cat string, a args) {
	t.push(event{ph: "i", pid: pid, tid: tid, ts: t.k.Now(), name: name, cat: cat, scope: "t", args: a})
}

// Attach makes t observe k through its switch, idle and wake hooks.
// Call it before the scheduling classes are built, so its hooks run
// before theirs: an idle hook that puts work straight back on the CPU
// then cannot hide the idle edge from the trace. t observes the ghOSt
// class and the fault injector as any observer does, through their
// AddObserver.
func Attach(t *Tracer, k *kernel.Kernel) {
	t.k = k
	k.AddSwitchHook(t.cpuRun)
	k.AddIdleHook(t.cpuIdle)
	k.AddWakeHook(t.wakeup)
}

// --- kernel layer ----------------------------------------------------

// cpuRun notes that th became current on c: the previous slice on that
// track closes and a new "ctxswitch" slice opens.
func (t *Tracer) cpuRun(c *kernel.CPU, th *kernel.Thread) {
	cpu, tid := int(c.ID), uint64(th.TID())
	t.prevCPU = grow(t.prevCPU, cpu)
	if t.prevCPU[cpu] != tid {
		t.prevCPU[cpu] = tid
		t.m.CtxSwitches++
	}
	if !t.events {
		return
	}
	t.open = grow(t.open, cpu)
	if t.open[cpu] == tid {
		return // same thread re-confirmed; keep the open slice
	}
	now := t.k.Now()
	if t.open[cpu] != 0 {
		t.push(event{ph: "E", pid: pidCPUs, tid: cpu, ts: now})
	}
	t.open[cpu] = tid
	t.push(event{ph: "B", pid: pidCPUs, tid: cpu, ts: now, name: th.Name(), cat: "ctxswitch",
		args: args{"tid": int64(tid), "class": th.Class().Name()}})
}

// cpuIdle notes that c lost its current thread; the open slice closes.
func (t *Tracer) cpuIdle(c *kernel.CPU) {
	cpu := int(c.ID)
	t.prevCPU = grow(t.prevCPU, cpu)
	t.prevCPU[cpu] = 0
	if !t.events {
		return
	}
	t.open = grow(t.open, cpu)
	if t.open[cpu] == 0 {
		return
	}
	t.open[cpu] = 0
	t.push(event{ph: "E", pid: pidCPUs, tid: cpu, ts: t.k.Now()})
}

// wakeup records a thread wakeup placed on c.
func (t *Tracer) wakeup(c *kernel.CPU, th *kernel.Thread) {
	t.m.Wakeups++
	if t.events {
		t.instant(pidCPUs, int(c.ID), th.Name(), "sched", args{"tid": int64(th.TID()), "event": "wakeup"})
	}
}

// --- ghostcore layer -------------------------------------------------

// MsgDelivered records a kernel→agent message enqueue with the queue
// depth after the post.
func (t *Tracer) MsgDelivered(e *ghostcore.Enclave, q *ghostcore.Queue, m ghostcore.Message, _, _ bool) {
	id, qlen := e.ID(), q.Len()
	em := t.enc(id)
	em.MsgsPosted++
	em.QueueDepthMax = max(em.QueueDepthMax, qlen)
	if t.events {
		t.instant(pidEnclaves, id, m.Type.String(), "message",
			args{"tid": int64(m.TID), "queue": q.Name(), "qlen": int64(qlen)})
	}
}

// MsgDrained records a message being drained by the agent on cpu, with
// its Table 3 delivery latency: producing the message, any wakeup or
// propagation delay, and consuming it.
func (t *Tracer) MsgDrained(e *ghostcore.Enclave, m ghostcore.Message, cpu hw.CPUID) {
	cm := t.k.Cost()
	lat := t.k.Now() - m.Posted + cm.MsgEnqueue + cm.MsgDequeue
	em := t.enc(e.ID())
	em.MsgsDelivered++
	em.MsgDelivery.Record(lat)
	if t.events {
		t.instant(pidAgents, int(cpu), m.Type.String(), "message", args{"tid": int64(m.TID), "lat_ns": int64(lat)})
	}
}

// Latched records an accepted commit: a BPF fastpath latch, or a
// transaction with its modeled commit-to-run latency (Table 3: the
// local-schedule path for a local commit; for a remote one, its share of
// the agent-side group commit plus the IPI and install cost) and, for a
// remote commit, the IPI that installs it.
func (t *Tracer) Latched(e *ghostcore.Enclave, cpu hw.CPUID, th *kernel.Thread, c ghostcore.Commit) {
	em, tid := t.enc(e.ID()), int64(th.TID())
	if c.Group == 0 {
		em.BPFCommits++
		if t.events {
			t.instant(pidCPUs, int(cpu), "bpf-commit", "txn", args{"tid": tid})
		}
		return
	}
	cm := t.k.Cost()
	lat, mode := cm.LocalSchedule, "local"
	if !c.Local {
		lat, mode = cm.RemoteCommitAgentCost(c.Group)/sim.Duration(c.Group)+c.IPI, "remote"
		t.m.IPIs++
	}
	em.TxnsCommitted++
	em.TxnCommit.Record(lat)
	if !t.events {
		return
	}
	t.instant(pidCPUs, int(cpu), "txn-commit", "txn",
		args{"tid": tid, "group": int64(c.Group), "mode": mode, "lat_ns": int64(lat)})
	if !c.Local {
		t.instant(pidCPUs, int(cpu), "IPI", "ipi", args{"delay_ns": int64(c.IPI), "group": int64(c.Group)})
	}
}

// TxnFailed records a rejected transaction with its status and cause.
func (t *Tracer) TxnFailed(e *ghostcore.Enclave, txn *ghostcore.Txn, cause string) {
	em := t.enc(e.ID())
	em.TxnsFailed++
	if txn.Status == ghostcore.TxnESTALE {
		em.TxnESTALE++
		switch cause {
		case "aseq":
			em.TxnESTALEAgent++
		case "tseq":
			em.TxnESTALEThread++
		}
	}
	if !t.events {
		return
	}
	a := args{"tid": int64(txn.TID), "status": txn.Status.String()}
	if cause != "" {
		a["cause"] = cause
	}
	t.instant(pidCPUs, int(txn.CPU), "txn-fail", "txn", a)
}

// TxnRecalled records a committed transaction revoked before install.
func (t *Tracer) TxnRecalled(e *ghostcore.Enclave, txn *ghostcore.Txn) {
	t.enc(e.ID()).TxnsRecalled++
	if t.events {
		t.instant(pidCPUs, int(txn.CPU), "txn-recall", "txn", args{"tid": int64(txn.TID)})
	}
}

// GroupCommit records a multi-transaction commit batch (atomic marks the
// §4.5 all-or-nothing variant).
func (t *Tracer) GroupCommit(e *ghostcore.Enclave, n int, atomic bool) {
	id := e.ID()
	em := t.enc(id)
	em.GroupCommits++
	em.GroupedTxns += uint64(n)
	if !t.events {
		return
	}
	name := "group-commit"
	if atomic {
		name = "atomic-commit"
	}
	t.instant(pidEnclaves, id, name, "txn", args{"txns": int64(n)})
}

// Tseq records a ghOSt thread kicked off its CPU back to the agent: the
// THREAD_PREEMPTED message's sequence bump.
func (t *Tracer) Tseq(e *ghostcore.Enclave, th *kernel.Thread, _, _ uint64, mt ghostcore.MsgType) {
	if mt != ghostcore.MsgThreadPreempted {
		return
	}
	t.enc(e.ID()).Preemptions++
	if t.events {
		t.instant(pidCPUs, int(th.LastCPU()), "preempt", "sched", args{"tid": int64(th.TID())})
	}
}

// Lifecycle records an enclave lifecycle transition (watchdog armed,
// watchdog fired, destroy with CFS fallback, agent generation change).
func (t *Tracer) Lifecycle(e *ghostcore.Enclave, name, detail string) {
	id := e.ID()
	em := t.enc(id)
	switch name {
	case "watchdog-fired":
		em.WatchdogFires++
	case "destroy":
		em.Destroyed = true
		em.DestroyedReason = detail
	}
	if !t.events {
		return
	}
	a := args{}
	if detail != "" {
		a["detail"] = detail
	}
	t.instant(pidEnclaves, id, name, "enclave", a)
}

// AgentStep records one wake→decision→commit span of the agent pinned to
// cpu: a complete slice of duration dur on the agent's track, annotated
// with how many messages it drained and transactions it committed.
func (t *Tracer) AgentStep(e *ghostcore.Enclave, cpu hw.CPUID, dur sim.Duration, msgs, txns int, mode string) {
	em := t.enc(e.ID())
	em.AgentSteps++
	em.AgentStep.Record(dur)
	if t.events {
		t.push(event{ph: "X", pid: pidAgents, tid: int(cpu), ts: t.k.Now(), dur: dur, name: "schedule",
			cat: "agent", args: args{"msgs": int64(msgs), "txns": int64(txns), "mode": mode}})
	}
}

// --- faults layer ----------------------------------------------------

// Fault records one fault-injection decision (a window opening, or one
// injected fault inside a window) keyed by its kind string. Recovery
// actions the fault provokes — watchdog fires, CFS fallback, upgrade
// handoffs — appear as Lifecycle events on the affected enclave's track.
func (t *Tracer) Fault(now sim.Time, kind string, enc int, detail string) {
	if t.m.Faults == nil {
		t.m.Faults = make(map[string]uint64)
	}
	t.m.Faults[kind]++
	if !t.events {
		return
	}
	a := args{"enc": int64(enc)}
	if detail != "" {
		a["detail"] = detail
	}
	t.push(event{ph: "i", pid: pidFaults, tid: 1, ts: now, name: kind, cat: "fault", scope: "t", args: a})
}
