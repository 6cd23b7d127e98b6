package workload

import (
	"encoding/json"
	"fmt"
	"math"

	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/snap"
	"ghost/internal/stats"
)

// Snapshot support (DESIGN.md §3j): the worker pool and the Poisson
// source are snap.Components, and their thread bodies (pool workers,
// spinners) are registered resumable bodies, rebuilt exactly as spawned.
// The pool record restores each worker's request; the kernel record says
// where the worker is parked. A worker parked in Run is in its request's
// service, which a restorable pool runs as one Run (runService), so it
// completes the request when that Run finishes.
//
// The pool record lists the free workers and the busy ones with their
// requests (the "inbox", by TID), then the backlog. Each of those TIDs
// must name one of the pool's own workers, at most once; restore fails
// with snap.ErrCorrupt otherwise.

// requestRec is a Request without its Done callback, which cannot ride
// in a byte stream; HadDone tells restore to re-attach one via the
// pool's DoneRebinder.
type requestRec struct {
	ID        uint64 `json:"id"`
	Arrival   int64  `json:"arrival"`
	Service   int64  `json:"service"`
	Remaining int64  `json:"remaining"`
	Class     int    `json:"class,omitempty"`
	HadDone   bool   `json:"hadDone,omitempty"`
}

func saveRequest(r *Request) requestRec {
	return requestRec{
		ID:        r.ID,
		Arrival:   int64(r.Arrival),
		Service:   int64(r.Service),
		Remaining: int64(r.Remaining),
		Class:     r.Class,
		HadDone:   r.Done != nil,
	}
}

func (p *WorkerPool) loadRequest(rec requestRec) (*Request, error) {
	r := &Request{
		ID:        rec.ID,
		Arrival:   sim.Time(rec.Arrival),
		Service:   sim.Duration(rec.Service),
		Remaining: sim.Duration(rec.Remaining),
		Class:     rec.Class,
	}
	if rec.HadDone {
		if p.DoneRebinder == nil {
			return nil, fmt.Errorf("worker pool %q: snapshot has requests with Done callbacks but the restored pool has no DoneRebinder", p.snapKey)
		}
		p.DoneRebinder(r)
	}
	return r, nil
}

type inboxRec struct {
	TID int        `json:"tid"`
	Req requestRec `json:"req"`
}

type recorderRec struct {
	Hist        stats.HistogramState `json:"hist"`
	Completed   uint64               `json:"completed"`
	WarmupUntil int64                `json:"warmupUntil"`
}

type poolState struct {
	Free     []int        `json:"free"`
	Inbox    []inboxRec   `json:"inbox,omitempty"`
	Backlog  []requestRec `json:"backlog,omitempty"`
	Recorder recorderRec  `json:"recorder"`
}

// SnapshotKind implements snap.Component.
func (p *WorkerPool) SnapshotKind() string { return "workload.pool" }

// BindSnapshotKey implements snap.KeyBinder: stamp the pool's component
// key onto its workers' body descriptors so a snapshot can route each
// worker back to this pool.
func (p *WorkerPool) BindSnapshotKey(key string) {
	p.snapKey = key
	for _, w := range p.workers {
		if d := w.t.BodyDesc(); d != nil {
			d.Key = key
			continue
		}
		w.t.SetBodyDesc(&kernel.BodyDesc{Kind: "workload.pool-worker", Key: key})
	}
}

// SnapshotSave implements snap.Component.
func (p *WorkerPool) SnapshotSave() ([]byte, error) {
	if p.stopping {
		return nil, fmt.Errorf("worker pool %q is stopping", p.snapKey)
	}
	checkDone := func(r *Request) error {
		if r.Done != nil && p.DoneRebinder == nil {
			return fmt.Errorf("worker pool %q: request %d has a Done callback but the pool has no DoneRebinder to restore it", p.snapKey, r.ID)
		}
		return nil
	}
	st := poolState{Recorder: recorderRec{
		Hist:        p.rec.Hist.State(),
		Completed:   p.rec.Completed,
		WarmupUntil: int64(p.rec.WarmupUntil),
	}}
	for _, w := range p.free {
		st.Free = append(st.Free, int(w.t.TID()))
	}
	for _, w := range p.workers {
		if w.r == nil {
			continue
		}
		if err := checkDone(w.r); err != nil {
			return nil, err
		}
		st.Inbox = append(st.Inbox, inboxRec{TID: int(w.t.TID()), Req: saveRequest(w.r)})
	}
	for _, r := range p.backlog {
		if err := checkDone(r); err != nil {
			return nil, err
		}
		st.Backlog = append(st.Backlog, saveRequest(r))
	}
	return json.Marshal(st)
}

// SnapshotLoad implements snap.Component. Runs after the spawn pass, so
// worker TIDs resolve through the kernel.
func (p *WorkerPool) SnapshotLoad(data []byte) error {
	var st poolState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	return p.applyState(&st)
}

// applyState overlays a pool record. Every free and busy TID must name
// one of the pool's own workers, each at most once: a worker is either
// free or serving one request. A worker parked in Run is serving one.
func (p *WorkerPool) applyState(st *poolState) error {
	byTID := make(map[int]*poolWorker, len(p.workers))
	for _, w := range p.workers {
		w.r = nil
		byTID[int(w.t.TID())] = w
	}
	claim := func(tid int, what string) (*poolWorker, error) {
		w, mine := byTID[tid]
		switch {
		case !mine:
			return nil, fmt.Errorf("worker pool %q: %s T%d is not one of its workers", p.snapKey, what, tid)
		case w == nil:
			return nil, fmt.Errorf("worker pool %q: %s T%d is listed twice", p.snapKey, what, tid)
		}
		byTID[tid] = nil // claimed
		return w, nil
	}
	p.stopping = false
	p.free = p.free[:0]
	for _, tid := range st.Free {
		w, err := claim(tid, "free worker")
		if err != nil {
			return err
		}
		p.free = append(p.free, w)
	}
	for _, ir := range st.Inbox {
		w, err := claim(ir.TID, "busy worker")
		if err != nil {
			return err
		}
		if w.r, err = p.loadRequest(ir.Req); err != nil {
			return err
		}
	}
	for _, w := range p.workers {
		w.stage = workerIdle
		if w.t.Ran() {
			if w.r == nil {
				return fmt.Errorf("worker pool %q: T%d is parked in Run but serves no request", p.snapKey, w.t.TID())
			}
			w.stage = 1 // in its request's one service Run
		}
	}
	p.backlog = p.backlog[:0]
	for _, rr := range st.Backlog {
		r, err := p.loadRequest(rr)
		if err != nil {
			return err
		}
		p.backlog = append(p.backlog, r)
	}
	p.rec.Hist.SetState(st.Recorder.Hist)
	p.rec.Completed = st.Recorder.Completed
	p.rec.WarmupUntil = sim.Time(st.Recorder.WarmupUntil)
	return nil
}

// NewPoolShell builds an empty WorkerPool for snapshot restore: no
// workers yet (worker bodies join the pool as the spawn pass spawns
// them), state overlaid later by SnapshotLoad. rec may be nil, in which
// case the pool owns a fresh recorder.
func NewPoolShell(k *kernel.Kernel, rec *LatencyRecorder) *WorkerPool {
	if rec == nil {
		rec = &LatencyRecorder{}
	}
	return &WorkerPool{k: k, rec: rec, serve: runService}
}

// Recorder returns the pool's latency recorder.
func (p *WorkerPool) Recorder() *LatencyRecorder { return p.rec }

// --- Poisson source ----------------------------------------------------

// serviceRec serializes the known ServiceDist implementations.
type serviceRec struct {
	Kind string  `json:"kind"`
	A    int64   `json:"a,omitempty"`
	B    int64   `json:"b,omitempty"`
	P    float64 `json:"p,omitempty"`
}

func saveService(d ServiceDist) (serviceRec, error) {
	switch v := d.(type) {
	case Fixed:
		return serviceRec{Kind: "fixed", A: int64(v)}, nil
	case Exponential:
		return serviceRec{Kind: "exp", A: int64(v)}, nil
	case Bimodal:
		return serviceRec{Kind: "bimodal", A: int64(v.Short), B: int64(v.Long), P: v.PLong}, nil
	default:
		return serviceRec{}, fmt.Errorf("service distribution %T is not serializable", d)
	}
}

func loadService(rec serviceRec) (ServiceDist, error) {
	if rec.A < 0 || rec.B < 0 {
		return nil, fmt.Errorf("%s service distribution with negative duration (a=%d, b=%d)", rec.Kind, rec.A, rec.B)
	}
	if !(rec.P >= 0 && rec.P <= 1) {
		return nil, fmt.Errorf("%s service distribution with probability %v outside [0, 1]", rec.Kind, rec.P)
	}
	switch rec.Kind {
	case "fixed":
		return Fixed(rec.A), nil
	case "exp":
		return Exponential(rec.A), nil
	case "bimodal":
		return Bimodal{Short: sim.Duration(rec.A), Long: sim.Duration(rec.B), PLong: rec.P}, nil
	default:
		return nil, fmt.Errorf("unknown service distribution kind %q", rec.Kind)
	}
}

type poissonState struct {
	Rate    float64    `json:"rate"`
	Service serviceRec `json:"service"`
	Rand    uint64     `json:"rand"`
	NextID  uint64     `json:"nextID"`
	Stopped bool       `json:"stopped,omitempty"`
	Until   int64      `json:"until,omitempty"`
}

// SnapshotKind implements snap.Component.
func (p *PoissonSource) SnapshotKind() string { return "workload.poisson" }

// SnapshotSave implements snap.Component. The pending arrival event is
// serialized separately by the engine walk (ComponentEvents).
func (p *PoissonSource) SnapshotSave() ([]byte, error) {
	svc, err := saveService(p.service)
	if err != nil {
		return nil, err
	}
	return json.Marshal(poissonState{
		Rate:    p.rate,
		Service: svc,
		Rand:    p.rand.State(),
		NextID:  p.nextID,
		Stopped: p.stopped,
		Until:   int64(p.Until),
	})
}

// SnapshotLoad implements snap.Component.
func (p *PoissonSource) SnapshotLoad(data []byte) error {
	var st poissonState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if !(st.Rate > 0) || math.IsInf(st.Rate, 1) {
		return fmt.Errorf("poisson source: arrival rate %v is not finite and above 0", st.Rate)
	}
	svc, err := loadService(st.Service)
	if err != nil {
		return err
	}
	p.rate = st.Rate
	p.service = svc
	p.rand.SetState(st.Rand)
	p.nextID = st.NextID
	p.stopped = st.Stopped
	p.Until = sim.Time(st.Until)
	return nil
}

// SnapshotEvents implements snap.ComponentEvents: the source's only
// pending event is its armed next-arrival timer.
func (p *PoissonSource) SnapshotEvents() []sim.EventKind {
	return []sim.EventKind{{Name: "arm", Fn: poissonFire,
		Save: func(a any) (sim.EventFields, bool) { return sim.EventFields{}, a == any(p) },
		Load: func(sim.EventFields) (any, error) { return p, nil }}}
}

// NewPoissonShell builds an unarmed PoissonSource for snapshot restore:
// no arrival timer is scheduled (the pending one, if any, is restored as
// an engine event) and all parameters come from SnapshotLoad. The sink
// closure is owner-bound, so restores always supply it here via a
// per-restore component factory.
func NewPoissonShell(eng *sim.Engine, sink func(*Request)) *PoissonSource {
	return &PoissonSource{eng: eng, rand: sim.NewRand(1), stopped: true, sink: sink}
}

// --- registered resumable bodies ---------------------------------------

// SpinnerDesc is the body descriptor matching Spinner(chunk); spawn
// sites attach it so spinner threads are snapshot-capable.
func SpinnerDesc(chunk sim.Duration) *kernel.BodyDesc {
	return &kernel.BodyDesc{Kind: "workload.spinner", Args: []int64{int64(chunk)}}
}

func init() {
	snap.RegisterComponent("workload.pool", func(ctx *snap.RestoreCtx, key string) (snap.Component, error) {
		return NewPoolShell(ctx.Kernel, nil), nil
	})
	snap.RegisterBody("workload.pool-worker", func(ctx *snap.RestoreCtx, rec kernel.BodyRec, _ *sim.Rand) (kernel.ThreadFunc, error) {
		p, ok := ctx.Component(rec.Key).(*WorkerPool)
		if !ok {
			return nil, fmt.Errorf("pool worker references component %q which is not a WorkerPool", rec.Key)
		}
		return p.workerBody(), nil
	})
	snap.RegisterBody("workload.spinner", func(ctx *snap.RestoreCtx, rec kernel.BodyRec, _ *sim.Rand) (kernel.ThreadFunc, error) {
		if len(rec.Args) != 1 {
			return nil, fmt.Errorf("workload.spinner wants 1 arg, got %d", len(rec.Args))
		}
		chunk := sim.Duration(rec.Args[0])
		if chunk <= 0 {
			// A spinner never spawns with such a chunk: it would hang or
			// panic in its first Run.
			return nil, fmt.Errorf("%w: workload.spinner chunk %d is not positive", snap.ErrCorrupt, chunk)
		}
		return Spinner(chunk), nil
	})
}
