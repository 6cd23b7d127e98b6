package policies

import (
	"encoding/json"
	"fmt"
	"sort"

	"ghost/internal/agentsdk"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/snap"
)

// Snapshot/restore support (DESIGN.md §3j). Each built-in policy
// implements agentsdk.PolicySnapshotter by serializing its tracker and
// private queues as TID-based records; on load, TIDs resolve back to
// thread handles through the Attach context. Policies configured with
// Go funcs (CentralFIFO.Band, Shinjuku.Batch) are outside the
// envelope: a func cannot ride in a byte stream, so Save reports a
// descriptive error instead of silently dropping the classifier.

// TStateRec is the serialized form of one tracked thread. It has no
// Enqueued flag: the policy's saved queues say which threads are queued.
type TStateRec struct {
	TID       int   `json:"tid"`
	Runnable  bool  `json:"runnable,omitempty"`
	Running   bool  `json:"running,omitempty"`
	CPU       int   `json:"cpu"`
	LastStart int64 `json:"lastStart,omitempty"`
	Runtime   int64 `json:"runtime,omitempty"`
}

// SaveTrackerRecs serializes tr's thread map in TID order; the facade
// exports it (ghost.SavePolicyTracker) for custom policies.
func SaveTrackerRecs(tr *Tracker) []TStateRec {
	tids := make([]int, 0, len(tr.Threads))
	for tid := range tr.Threads {
		tids = append(tids, int(tid))
	}
	sort.Ints(tids)
	recs := make([]TStateRec, 0, len(tids))
	for _, tid := range tids {
		ts := tr.Threads[kernel.TID(tid)]
		recs = append(recs, TStateRec{
			TID:       tid,
			Runnable:  ts.Runnable,
			Running:   ts.Running,
			CPU:       ts.CPU,
			LastStart: int64(ts.LastStart),
			Runtime:   int64(ts.Runtime),
		})
	}
	return recs
}

// LoadTrackerRecs rebuilds tr.Threads from recs, resolving TIDs through
// ctx, with no thread enqueued (resolveQueue marks the queued ones). A
// thread cannot have been scheduled after the restored clock: the
// placement ring's order and the next Runtime charge both rely on
// LastStart <= now. The tracker's lifecycle callbacks (installed by
// Attach) are preserved.
func LoadTrackerRecs(tr *Tracker, ctx *agentsdk.Context, recs []TStateRec) error {
	tr.Threads = make(map[kernel.TID]*TState, len(recs))
	ncpu, now := ctx.Topology().NumCPUs(), ctx.Now()
	for _, rec := range recs {
		if rec.CPU < -1 || rec.CPU >= ncpu {
			return fmt.Errorf("tracker places T%d on cpu%d, outside [-1,%d)", rec.TID, rec.CPU, ncpu)
		}
		if sim.Time(rec.LastStart) > now {
			return fmt.Errorf("tracker has T%d last scheduled at %v, after the restored clock %v", rec.TID, sim.Time(rec.LastStart), now)
		}
		t := ctx.Thread(kernel.TID(rec.TID))
		if t == nil {
			return fmt.Errorf("tracker refers to T%d, which does not exist after restore", rec.TID)
		}
		tr.Threads[t.TID()] = &TState{
			Thread:    t,
			Runnable:  rec.Runnable,
			Running:   rec.Running,
			CPU:       rec.CPU,
			LastStart: sim.Time(rec.LastStart),
			Runtime:   sim.Duration(rec.Runtime),
		}
	}
	return nil
}

// queueTIDs flattens a TState queue to TIDs in order.
func queueTIDs(q []*TState) []int {
	out := make([]int, 0, len(q))
	for _, ts := range q {
		out = append(out, int(ts.Thread.TID()))
	}
	return out
}

// resolveQueue maps TIDs back to tracked states and marks each one
// Enqueued. seen holds the TIDs of every queue the policy has restored
// so far, so a TID listed twice, in one queue or across two, is an
// error.
func resolveQueue(tr *Tracker, tids []int, seen map[kernel.TID]bool) ([]*TState, error) {
	out := make([]*TState, 0, len(tids))
	for _, tid := range tids {
		ts := tr.Threads[kernel.TID(tid)]
		if ts == nil {
			return nil, fmt.Errorf("queue refers to untracked T%d", tid)
		}
		if seen[kernel.TID(tid)] {
			return nil, fmt.Errorf("T%d is queued twice", tid)
		}
		seen[kernel.TID(tid)] = true
		ts.Enqueued = true
		out = append(out, ts)
	}
	return out, nil
}

// pairs serializes the table as (cpu, tid) pairs in CPU order.
func (pl *placements) pairs() [][2]int {
	var out [][2]int
	for cpu, s := range pl.slots {
		if s.ts != nil {
			out = append(out, [2]int{cpu, int(s.ts.Thread.TID())})
		}
	}
	return out
}

// load refills the table from (cpu, tid) pairs, rejecting any pair the
// live table could not hold, and relinks the ring in (LastStart, cpu)
// order. LoadTrackerRecs has checked every LastStart against the clock.
func (pl *placements) load(tr *Tracker, pairs [][2]int) error {
	for cpu := range pl.slots {
		pl.clear(hw.CPUID(cpu))
	}
	held := make([]*TState, len(pl.slots))
	var order []int
	for _, pair := range pairs {
		cpu, tid := pair[0], pair[1]
		ts := tr.Threads[kernel.TID(tid)]
		switch {
		case cpu < 0 || cpu >= len(pl.slots):
			return fmt.Errorf("placement cpu%d out of range [0,%d)", cpu, len(pl.slots))
		case held[cpu] != nil:
			return fmt.Errorf("duplicate placement on cpu%d", cpu)
		case ts == nil:
			return fmt.Errorf("placement on cpu%d refers to untracked T%d", cpu, tid)
		case ts.CPU != cpu:
			return fmt.Errorf("placement on cpu%d holds T%d, which the tracker has on cpu%d", cpu, tid, ts.CPU)
		}
		held[cpu] = ts
		order = append(order, cpu)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := held[order[i]].LastStart, held[order[j]].LastStart
		return a < b || a == b && order[i] < order[j]
	})
	for _, cpu := range order {
		pl.put(hw.CPUID(cpu), held[cpu])
	}
	return nil
}

// --- CentralFIFO ---

type centralFIFOState struct {
	NumBands     int         `json:"numBands"`
	PreemptLower bool        `json:"preemptLower,omitempty"`
	Quantum      int64       `json:"quantum,omitempty"`
	Tracker      []TStateRec `json:"tracker,omitempty"`
	Queues       [][]int     `json:"queues"`
	Running      [][2]int    `json:"running,omitempty"`
}

// SnapshotKind implements agentsdk.PolicySnapshotter.
func (p *CentralFIFO) SnapshotKind() string { return "central-fifo" }

// SnapshotSave implements agentsdk.PolicySnapshotter.
func (p *CentralFIFO) SnapshotSave() ([]byte, error) {
	if p.Band != nil {
		return nil, fmt.Errorf("CentralFIFO with a Band classifier func is not snapshottable (funcs do not serialize)")
	}
	st := centralFIFOState{
		NumBands:     p.NumBands,
		PreemptLower: p.PreemptLower,
		Quantum:      int64(p.Quantum),
		Tracker:      SaveTrackerRecs(p.tr),
		Queues:       make([][]int, len(p.queues)),
		Running:      p.running.pairs(),
	}
	for b, q := range p.queues {
		st.Queues[b] = queueTIDs(q)
	}
	return json.Marshal(st)
}

// SnapshotLoad implements agentsdk.PolicySnapshotter. The policy must be
// attached (restore re-runs Start before overlaying state).
func (p *CentralFIFO) SnapshotLoad(data []byte) error {
	var st centralFIFOState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("central-fifo state: %w", err)
	}
	p.NumBands = st.NumBands
	p.PreemptLower = st.PreemptLower
	p.Quantum = sim.Duration(st.Quantum)
	if st.NumBands <= 0 || len(st.Queues) != st.NumBands {
		return fmt.Errorf("central-fifo: %d band queues for %d bands", len(st.Queues), st.NumBands)
	}
	if err := LoadTrackerRecs(p.tr, p.ctx, st.Tracker); err != nil {
		return fmt.Errorf("central-fifo: %w", err)
	}
	p.queues = make([]runq, len(st.Queues))
	seen := make(map[kernel.TID]bool)
	for b, tids := range st.Queues {
		q, err := resolveQueue(p.tr, tids, seen)
		if err != nil {
			return fmt.Errorf("central-fifo band %d: %w", b, err)
		}
		p.queues[b] = q
	}
	if err := p.running.load(p.tr, st.Running); err != nil {
		return fmt.Errorf("central-fifo: %w", err)
	}
	return nil
}

// --- Shinjuku ---

// shinjukuState has no batch queue or batch placements: Save refuses a
// policy with a Batch classifier, and without one no thread is ever
// queued or placed as batch, so both are empty in every image.
type shinjukuState struct {
	Slice      int64       `json:"slice"`
	MaxCommits int         `json:"maxCommits,omitempty"`
	Tracker    []TStateRec `json:"tracker,omitempty"`
	FIFO       []int       `json:"fifo,omitempty"`
	Running    [][2]int    `json:"running,omitempty"`
}

// SnapshotKind implements agentsdk.PolicySnapshotter.
func (p *Shinjuku) SnapshotKind() string { return "shinjuku" }

// SnapshotSave implements agentsdk.PolicySnapshotter.
func (p *Shinjuku) SnapshotSave() ([]byte, error) {
	if p.Batch != nil {
		return nil, fmt.Errorf("Shinjuku with a Batch classifier func is not snapshottable (funcs do not serialize)")
	}
	st := shinjukuState{
		Slice:      int64(p.Slice),
		MaxCommits: p.MaxCommits,
		Tracker:    SaveTrackerRecs(p.tr),
		FIFO:       queueTIDs(p.fifo),
		Running:    p.running.pairs(),
	}
	return json.Marshal(st)
}

// SnapshotLoad implements agentsdk.PolicySnapshotter.
func (p *Shinjuku) SnapshotLoad(data []byte) error {
	var st shinjukuState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("shinjuku state: %w", err)
	}
	p.Slice = sim.Duration(st.Slice)
	p.MaxCommits = st.MaxCommits
	if err := LoadTrackerRecs(p.tr, p.ctx, st.Tracker); err != nil {
		return fmt.Errorf("shinjuku: %w", err)
	}
	var err error
	if p.fifo, err = resolveQueue(p.tr, st.FIFO, make(map[kernel.TID]bool)); err != nil {
		return fmt.Errorf("shinjuku fifo: %w", err)
	}
	if err := p.running.load(p.tr, st.Running); err != nil {
		return fmt.Errorf("shinjuku running: %w", err)
	}
	return nil
}

// --- PerCPUFIFO ---

type perCPUFIFOState struct {
	NextRR  int         `json:"nextRR,omitempty"`
	Tracker []TStateRec `json:"tracker,omitempty"`
	// RunQueues is (cpu → TIDs) as pairs in CPU order.
	RunQueues []perCPUQueueRec `json:"runQueues,omitempty"`
}

type perCPUQueueRec struct {
	CPU  int   `json:"cpu"`
	TIDs []int `json:"tids"`
}

// SnapshotKind implements agentsdk.PolicySnapshotter.
func (p *PerCPUFIFO) SnapshotKind() string { return "percpu-fifo" }

// SnapshotSave implements agentsdk.PolicySnapshotter.
func (p *PerCPUFIFO) SnapshotSave() ([]byte, error) {
	st := perCPUFIFOState{
		NextRR:  p.nextRR,
		Tracker: SaveTrackerRecs(p.tr),
	}
	for cpu, q := range p.rqs {
		if len(q) != 0 {
			st.RunQueues = append(st.RunQueues, perCPUQueueRec{CPU: cpu, TIDs: queueTIDs(q)})
		}
	}
	return json.Marshal(st)
}

// SnapshotLoad implements agentsdk.PolicySnapshotter.
func (p *PerCPUFIFO) SnapshotLoad(data []byte) error {
	var st perCPUFIFOState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("percpu-fifo state: %w", err)
	}
	if st.NextRR < 0 {
		return fmt.Errorf("percpu-fifo: negative round-robin cursor %d", st.NextRR)
	}
	p.nextRR = st.NextRR
	if err := LoadTrackerRecs(p.tr, p.ctx, st.Tracker); err != nil {
		return fmt.Errorf("percpu-fifo: %w", err)
	}
	cpus := p.ctx.Enclave.CPUs()
	p.rqs = make([]runq, p.ctx.Topology().NumCPUs())
	loaded := kernel.Mask{}
	seen := make(map[kernel.TID]bool)
	for _, qr := range st.RunQueues {
		cpu := hw.CPUID(qr.CPU)
		if !cpus.Has(cpu) {
			return fmt.Errorf("percpu-fifo: run queue on cpu%d, outside the enclave", qr.CPU)
		}
		if loaded.Has(cpu) {
			return fmt.Errorf("percpu-fifo: two run queues for cpu%d", qr.CPU)
		}
		loaded.Set(cpu)
		q, err := resolveQueue(p.tr, qr.TIDs, seen)
		if err != nil {
			return fmt.Errorf("percpu-fifo cpu%d: %w", qr.CPU, err)
		}
		p.rqs[cpu] = q
	}
	return nil
}

func init() {
	snap.RegisterPolicy("central-fifo", func(*snap.RestoreCtx) (any, error) { return NewCentralFIFO(), nil })
	snap.RegisterPolicy("shinjuku", func(*snap.RestoreCtx) (any, error) { return NewShinjuku(), nil })
	snap.RegisterPolicy("percpu-fifo", func(*snap.RestoreCtx) (any, error) { return NewPerCPUFIFO(), nil })
}
