package trace

import (
	"fmt"
	"sort"
	"strings"

	"ghost/internal/stats"
)

// Metrics is an aggregated snapshot of everything the tracer counted:
// engine dispatch volume, kernel scheduling activity, and per-enclave
// message/transaction latency distributions. Obtain one from
// Tracer.Metrics (or Machine.Metrics through the facade).
type Metrics struct {
	// EngineEvents is the number of discrete events the simulation
	// engine dispatched; EngineMaxQueue is the event queue's high-water
	// mark. The engine counts both itself (Engine.Executed, MaxQueue);
	// the tracer leaves them zero and Machine.Metrics fills them in.
	EngineEvents   uint64
	EngineMaxQueue int

	// CtxSwitches counts thread installs on CPUs; Wakeups counts wake
	// placements; IPIs counts remote transaction install interrupts.
	CtxSwitches uint64
	Wakeups     uint64
	IPIs        uint64

	// Faults counts injected faults by kind string ("crash", "msgdrop",
	// ...), nil when no fault plan ran.
	Faults map[string]uint64

	// Enclaves holds the per-enclave breakdown, keyed by enclave id.
	Enclaves map[int]*EnclaveMetrics
}

// EnclaveMetrics aggregates one enclave's scheduling activity.
type EnclaveMetrics struct {
	ID int

	// Messages: kernel-side posts, agent-side drains, and the Table 3
	// delivery latency distribution (produce + propagate + consume).
	MsgsPosted    uint64
	MsgsDelivered uint64
	MsgDelivery   stats.Histogram
	QueueDepthMax int

	// Transactions: commit outcomes, ESTALE causes, group batches, and
	// the commit-to-run latency distribution.
	TxnsCommitted   uint64
	TxnsFailed      uint64
	TxnsRecalled    uint64
	TxnESTALE       uint64
	TxnESTALEAgent  uint64 // stale agent sequence (per-CPU model)
	TxnESTALEThread uint64 // stale thread sequence (centralized model)
	GroupCommits    uint64
	GroupedTxns     uint64
	TxnCommit       stats.Histogram

	// Agent activity: scheduling-loop spans and the BPF fastpath.
	AgentSteps uint64
	AgentStep  stats.Histogram
	BPFCommits uint64

	// Preemptions counts ghOSt threads kicked back to the agent.
	Preemptions uint64

	// Lifecycle: watchdog fires and the CFS-fallback destroy reason.
	WatchdogFires   uint64
	Destroyed       bool
	DestroyedReason string
}

// CommitRate returns the fraction of transactions that committed.
func (em *EnclaveMetrics) CommitRate() float64 {
	total := em.TxnsCommitted + em.TxnsFailed
	if total == 0 {
		return 0
	}
	return float64(em.TxnsCommitted) / float64(total)
}

// Metrics returns a snapshot copy of everything aggregated so far. The
// tracer keeps accumulating afterwards; the snapshot is independent.
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return &Metrics{Enclaves: map[int]*EnclaveMetrics{}}
	}
	out := &Metrics{
		CtxSwitches: t.m.CtxSwitches,
		Wakeups:     t.m.Wakeups,
		IPIs:        t.m.IPIs,
		Enclaves:    make(map[int]*EnclaveMetrics, len(t.m.Enclaves)),
	}
	if len(t.m.Faults) > 0 {
		out.Faults = make(map[string]uint64, len(t.m.Faults))
		for k, v := range t.m.Faults {
			out.Faults[k] = v
		}
	}
	for id, em := range t.m.Enclaves {
		c := *em
		c.MsgDelivery = stats.Histogram{}
		c.TxnCommit = stats.Histogram{}
		c.AgentStep = stats.Histogram{}
		c.MsgDelivery.Merge(&em.MsgDelivery)
		c.TxnCommit.Merge(&em.TxnCommit)
		c.AgentStep.Merge(&em.AgentStep)
		out.Enclaves[id] = &c
	}
	return out
}

// String renders the snapshot as the human-readable report printed by
// `ghost-sim -metrics`.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine:   %d events dispatched, queue high-water %d\n",
		m.EngineEvents, m.EngineMaxQueue)
	fmt.Fprintf(&b, "kernel:   %d context switches, %d wakeups, %d IPIs\n",
		m.CtxSwitches, m.Wakeups, m.IPIs)
	if len(m.Faults) > 0 {
		kinds := make([]string, 0, len(m.Faults))
		for k := range m.Faults {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, len(kinds))
		for i, k := range kinds {
			parts[i] = fmt.Sprintf("%s=%d", k, m.Faults[k])
		}
		fmt.Fprintf(&b, "faults:   %s\n", strings.Join(parts, ", "))
	}
	ids := make([]int, 0, len(m.Enclaves))
	for id := range m.Enclaves {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		em := m.Enclaves[id]
		fmt.Fprintf(&b, "enclave %d:\n", id)
		fmt.Fprintf(&b, "  messages: %d posted, %d delivered, max queue depth %d\n",
			em.MsgsPosted, em.MsgsDelivered, em.QueueDepthMax)
		if em.MsgDelivery.Count() > 0 {
			fmt.Fprintf(&b, "  delivery: %s\n", em.MsgDelivery.Percentiles())
		}
		fmt.Fprintf(&b, "  txns:     %d committed, %d failed (%.1f%% ok), %d ESTALE (aseq %d / tseq %d), %d recalled\n",
			em.TxnsCommitted, em.TxnsFailed, 100*em.CommitRate(),
			em.TxnESTALE, em.TxnESTALEAgent, em.TxnESTALEThread, em.TxnsRecalled)
		if em.TxnCommit.Count() > 0 {
			fmt.Fprintf(&b, "  commit:   %s\n", em.TxnCommit.Percentiles())
		}
		if em.GroupCommits > 0 {
			fmt.Fprintf(&b, "  groups:   %d batches, %d txns\n", em.GroupCommits, em.GroupedTxns)
		}
		fmt.Fprintf(&b, "  agent:    %d steps, %d BPF commits, %d preemptions\n",
			em.AgentSteps, em.BPFCommits, em.Preemptions)
		if em.Destroyed {
			fmt.Fprintf(&b, "  destroyed: %q (watchdog fires: %d)\n", em.DestroyedReason, em.WatchdogFires)
		}
	}
	return b.String()
}
