package env

import (
	"encoding/json"
	"fmt"
	"sort"

	"ghost"
)

// Snapshot support for the control policy, so an Env can be forked
// mid-run (Env.Fork): the policy's tracker, band-FIFO queue, and any
// actions queued by a Step but not yet executed all ride in the machine
// snapshot as TID-based records.

func init() {
	ghost.RegisterPolicy("env.control", func() (any, error) {
		// auto is overlaid by SnapshotLoad.
		return newControlPolicy(false), nil
	})
}

// controlSnap is the wire form of a controlPolicy at a quiescent
// barrier. Map keys are flattened to TID-sorted pairs so the encoding
// is deterministic.
type controlSnap struct {
	Auto         bool                     `json:"auto,omitempty"`
	Tracker      []ghost.PolicyTrackerRec `json:"tracker"`
	Queue        []int                    `json:"queue,omitempty"`
	Since        [][2]int64               `json:"since,omitempty"`
	Bands        [][2]int64               `json:"bands,omitempty"`
	PendDispatch []Action                 `json:"pendDispatch,omitempty"`
	PendPreempt  []int                    `json:"pendPreempt,omitempty"`
	FailedTxns   uint64                   `json:"failedTxns,omitempty"`
}

// SnapshotKind implements ghost.PolicySnapshotter.
func (p *controlPolicy) SnapshotKind() string { return "env.control" }

// SnapshotSave implements ghost.PolicySnapshotter.
func (p *controlPolicy) SnapshotSave() ([]byte, error) {
	cs := controlSnap{
		Auto:         p.auto,
		Tracker:      ghost.SavePolicyTracker(p.tr),
		PendDispatch: p.pendDispatch,
		PendPreempt:  p.pendPreempt,
		FailedTxns:   p.failedTxns,
	}
	for _, ts := range p.queue {
		cs.Queue = append(cs.Queue, int(ts.Thread.TID()))
	}
	for tid, t := range p.since {
		cs.Since = append(cs.Since, [2]int64{int64(tid), int64(t)})
	}
	sort.Slice(cs.Since, func(i, j int) bool { return cs.Since[i][0] < cs.Since[j][0] })
	for tid, b := range p.bands {
		cs.Bands = append(cs.Bands, [2]int64{int64(tid), int64(b)})
	}
	sort.Slice(cs.Bands, func(i, j int) bool { return cs.Bands[i][0] < cs.Bands[j][0] })
	return json.Marshal(cs)
}

// SnapshotLoad implements ghost.PolicySnapshotter. It runs after Attach
// on the restored machine, so the tracker callbacks and p.ctx are live.
func (p *controlPolicy) SnapshotLoad(data []byte) error {
	var cs controlSnap
	if err := json.Unmarshal(data, &cs); err != nil {
		return fmt.Errorf("env.control: %w", err)
	}
	p.auto = cs.Auto
	if err := ghost.LoadPolicyTracker(p.tr, p.ctx, cs.Tracker); err != nil {
		return fmt.Errorf("env.control: %w", err)
	}
	// The queue is the one record of which threads are enqueued.
	p.queue = p.queue[:0]
	for _, tid := range cs.Queue {
		ts := p.tr.Get(ghost.TID(tid))
		switch {
		case ts == nil:
			return fmt.Errorf("env.control: queued T%d is not tracked after restore", tid)
		case ts.Enqueued:
			return fmt.Errorf("env.control: T%d is queued twice", tid)
		}
		ts.Enqueued = true
		p.queue = append(p.queue, ts)
	}
	p.since = make(map[ghost.TID]ghost.Time, len(cs.Since))
	for _, kv := range cs.Since {
		p.since[ghost.TID(kv[0])] = ghost.Time(kv[1])
	}
	p.bands = make(map[ghost.TID]int, len(cs.Bands))
	for _, kv := range cs.Bands {
		p.bands[ghost.TID(kv[0])] = int(kv[1])
	}
	p.pendDispatch = cs.PendDispatch
	p.pendPreempt = cs.PendPreempt
	p.failedTxns = cs.FailedTxns
	return nil
}
