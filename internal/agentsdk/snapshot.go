package agentsdk

import (
	"fmt"
	"sort"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Snapshot/restore support (DESIGN.md §3j). An agent set serializes to a
// SetRec; restore re-runs Start (the TID-pinned spawn pass recreates the
// runner threads and agent handles) and RestoreImage overlays the
// generation's state afterwards. The policy rides along as a
// (kind, opaque blob) pair via the PolicySnapshotter capability.

// PolicySnapshotter is the capability a scheduling policy implements to
// ride in snapshots: Kind names a factory in the snapshot policy catalog,
// Save captures the policy's private state, Load overwrites it.
type PolicySnapshotter interface {
	SnapshotKind() string
	SnapshotSave() ([]byte, error)
	SnapshotLoad(data []byte) error
}

// RunnerRec is one serialized agent runner. Pending is the action its
// machine takes once the current step's cost is charged
// (kernel.Charge.State).
type RunnerRec struct {
	CPU        int     `json:"cpu"`
	TID        int     `json:"tid"`
	Pending    int     `json:"pending,omitempty"`
	StallUntil int64   `json:"stallUntil,omitempty"`
	SlowUntil  int64   `json:"slowUntil,omitempty"`
	SlowFactor float64 `json:"slowFactor,omitempty"`
}

// PolicyRec is a serialized scheduling policy.
type PolicyRec struct {
	Kind string `json:"kind"`
	Data []byte `json:"data,omitempty"`
}

// SetRec is one serialized agent generation. Its model is the policy's:
// Start infers it from the restored policy's type.
type SetRec struct {
	EncID     int      `json:"encID"`
	GlobalCPU int      `json:"globalCPU"`
	ThreadCPU [][2]int `json:"threadCPU,omitempty"` // (tid, cpu), TID-sorted

	Runners []RunnerRec `json:"runners"`
	Policy  PolicyRec   `json:"policy"`

	Handoffs      uint64 `json:"handoffs"`
	StepsExecuted uint64 `json:"stepsExecuted"`
	TxnsCommitted uint64 `json:"txnsCommitted"`
	TxnsFailed    uint64 `json:"txnsFailed"`
}

// policy returns the set's policy regardless of model.
func (set *AgentSet) policy() any {
	if set.global != nil {
		return set.global
	}
	return set.percpu
}

// Policy returns the set's current-generation scheduling policy.
func (set *AgentSet) Policy() any { return set.policy() }

// SaveRec serializes the agent set. It fails with a descriptive error
// when the generation is outside the snapshot envelope: a stopped set
// (its runner threads are dead) or a policy without the snapshot
// capability.
func (set *AgentSet) SaveRec() (*SetRec, error) {
	if set.stopped {
		return nil, fmt.Errorf("agent set on enclave %d has been stopped; stopped generations are not snapshottable", set.enc.ID())
	}
	ps, ok := set.policy().(PolicySnapshotter)
	if !ok {
		return nil, fmt.Errorf("policy %T does not implement the snapshot capability (SnapshotKind/SnapshotSave/SnapshotLoad)", set.policy())
	}
	blob, err := ps.SnapshotSave()
	if err != nil {
		return nil, fmt.Errorf("policy %s: %w", ps.SnapshotKind(), err)
	}
	rec := &SetRec{
		EncID:         set.enc.ID(),
		GlobalCPU:     int(set.globalCPU),
		Policy:        PolicyRec{Kind: ps.SnapshotKind(), Data: blob},
		Handoffs:      set.Handoffs,
		StepsExecuted: set.StepsExecuted,
		TxnsCommitted: set.TxnsCommitted,
		TxnsFailed:    set.TxnsFailed,
	}
	set.eachRunner(func(r *runner) {
		rec.Runners = append(rec.Runners, RunnerRec{
			CPU:        int(r.cpu),
			TID:        int(r.thread.TID()),
			Pending:    r.charge.State(),
			StallUntil: int64(r.stallUntil),
			SlowUntil:  int64(r.slowUntil),
			SlowFactor: r.slowFactor,
		})
	})
	tids := make([]int, 0, len(set.threadCPU))
	for tid := range set.threadCPU {
		tids = append(tids, int(tid))
	}
	sort.Ints(tids)
	for _, tid := range tids {
		rec.ThreadCPU = append(rec.ThreadCPU, [2]int{tid, int(set.threadCPU[kernel.TID(tid)])})
	}
	return rec, nil
}

// MinTID returns the smallest runner TID in rec — the restore spawn pass
// orders agent-set recreation by it.
func (r *SetRec) MinTID() int {
	min := 0
	for i, rr := range r.Runners {
		if i == 0 || rr.TID < min {
			min = rr.TID
		}
	}
	return min
}

// RestoreImage overlays rec onto a freshly Started generation whose
// runner TIDs were pinned by the spawn pass. Called after every thread in
// the machine has been re-spawned, so the policy blob can resolve TIDs.
func (set *AgentSet) RestoreImage(rec *SetRec) error {
	if n := set.enc.CPUs().Count(); len(rec.Runners) != n {
		return fmt.Errorf("agent set on enclave %d: %d runners after re-spawn, snapshot has %d", rec.EncID, n, len(rec.Runners))
	}
	for _, rr := range rec.Runners {
		r := set.runner(hw.CPUID(rr.CPU))
		if r == nil {
			return fmt.Errorf("agent set on enclave %d: no runner on cpu%d after re-spawn", rec.EncID, rr.CPU)
		}
		if int(r.thread.TID()) != rr.TID {
			return fmt.Errorf("agent set on enclave %d: runner on cpu%d re-spawned as T%d, snapshot has T%d", rec.EncID, rr.CPU, r.thread.TID(), rr.TID)
		}
		if err := r.charge.SetState(rr.Pending); err != nil {
			return fmt.Errorf("agent set on enclave %d: runner on cpu%d: %w", rec.EncID, rr.CPU, err)
		}
		r.stallUntil = sim.Time(rr.StallUntil)
		r.slowUntil = sim.Time(rr.SlowUntil)
		r.slowFactor = rr.SlowFactor
	}
	// A global set's agent lives on one of its runners' CPUs; a per-CPU
	// set has none, and places threads only on its runners' CPUs.
	switch global := hw.CPUID(rec.GlobalCPU); {
	case set.global != nil && set.runner(global) == nil:
		return fmt.Errorf("agent set on enclave %d: global agent on cpu%d, which has no runner", rec.EncID, global)
	case set.global == nil && global != hw.NoCPU:
		return fmt.Errorf("agent set on enclave %d: per-CPU set has a global agent on cpu%d", rec.EncID, global)
	default:
		set.globalCPU = global
	}
	set.threadCPU = make(map[kernel.TID]hw.CPUID, len(rec.ThreadCPU))
	for _, pair := range rec.ThreadCPU {
		cpu := hw.CPUID(pair[1])
		if set.runner(cpu) == nil {
			return fmt.Errorf("agent set on enclave %d: T%d placed on cpu%d, which has no runner", rec.EncID, pair[0], cpu)
		}
		set.threadCPU[kernel.TID(pair[0])] = cpu
	}
	set.Handoffs = rec.Handoffs
	set.StepsExecuted = rec.StepsExecuted
	set.TxnsCommitted = rec.TxnsCommitted
	set.TxnsFailed = rec.TxnsFailed
	ps, ok := set.policy().(PolicySnapshotter)
	if !ok {
		return fmt.Errorf("restored policy %T does not implement the snapshot capability", set.policy())
	}
	if ps.SnapshotKind() != rec.Policy.Kind {
		return fmt.Errorf("restored policy kind %q does not match snapshot %q", ps.SnapshotKind(), rec.Policy.Kind)
	}
	return ps.SnapshotLoad(rec.Policy.Data)
}

// SnapshotEvents declares the agent sets' pre-bound events, each named
// by its set's enclave id: a set's RepollAfter timer, at most one and
// held by the set, and its RetryAfter pokes.
func SnapshotEvents(sets []*AgentSet) []sim.EventKind {
	setRef := func(a any) (sim.EventFields, bool) { return sim.EventFields{Ref: int64(a.(*AgentSet).enc.ID())}, true }
	set := func(f sim.EventFields) (any, error) {
		for _, set := range sets {
			if int64(set.enc.ID()) == f.Ref {
				return set, nil
			}
		}
		return nil, fmt.Errorf("enclave %d has no agent set", f.Ref)
	}
	return []sim.EventKind{
		{Name: "agentsdk.repoll", Fn: repollFn, Save: setRef, Load: set,
			Pending: func(a any) bool { return a.(*AgentSet).repoll.Pending() },
			Adopt: func(a any, at sim.Time, ev sim.Event) {
				set := a.(*AgentSet)
				set.repoll, set.repollAt = ev, at
			}},
		{Name: "agentsdk.pokeactive", Fn: pokeActiveFn, Save: setRef, Load: set},
	}
}
