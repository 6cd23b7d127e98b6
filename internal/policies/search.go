package policies

import (
	"container/heap"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Search implements the §4.4 Google Search policy: a single global agent
// for all 256 CPUs keeping runnable threads in a min-heap ordered by
// elapsed runtime (least-runtime-first), placing each thread as close as
// possible to where it last ran — same L1/L2 (core), then same CCX (L3),
// then nearest CCX, respecting the NUMA cpumask set at thread creation.
// Threads run to completion or until preempted by a CFS thread.
//
// The NUMA/CCX heuristics and the "hold briefly instead of migrating off
// the preferred CCX" refinement are switchable for the paper's ablation
// (+27 % NUMA, +10 % CCX, §4.4).
type Search struct {
	// NUMAAware honours the thread's socket cpumask-driven placement
	// preferences; CCXAware adds L3-domain locality; both on by default.
	NUMAAware bool
	CCXAware  bool
	// HoldForCCX keeps a thread waiting up to this long for a CPU in
	// its preferred CCX instead of migrating immediately (the 100 µs
	// experiment from §4.4). Zero disables holding.
	HoldForCCX sim.Duration

	tr   *Tracker
	heap runtimeHeap
	seq  uint64
}

// NewSearch builds the policy with all optimizations on.
func NewSearch() *Search {
	return &Search{NUMAAware: true, CCXAware: true}
}

// heap entry bookkeeping lives in TState.CPU/Runtime; order by Runtime.
type heapEnt struct {
	ts  *TState
	seq uint64
	idx int
}

type runtimeHeap struct {
	ents []*heapEnt
	by   map[*TState]*heapEnt
}

func (h *runtimeHeap) Len() int { return len(h.ents) }
func (h *runtimeHeap) Less(i, j int) bool {
	a, b := h.ents[i], h.ents[j]
	if a.ts.Runtime != b.ts.Runtime {
		return a.ts.Runtime < b.ts.Runtime
	}
	return a.seq < b.seq
}
func (h *runtimeHeap) Swap(i, j int) {
	h.ents[i], h.ents[j] = h.ents[j], h.ents[i]
	h.ents[i].idx = i
	h.ents[j].idx = j
}
func (h *runtimeHeap) Push(x any) {
	e := x.(*heapEnt)
	e.idx = len(h.ents)
	h.ents = append(h.ents, e)
	h.by[e.ts] = e
}
func (h *runtimeHeap) Pop() any {
	n := len(h.ents)
	e := h.ents[n-1]
	h.ents = h.ents[:n-1]
	delete(h.by, e.ts)
	e.idx = -1
	return e
}

// Attach implements agentsdk.GlobalPolicy.
func (p *Search) Attach(ctx *agentsdk.Context) {
	p.heap = runtimeHeap{by: make(map[*TState]*heapEnt)}
	p.tr = NewTracker()
	p.tr.OnRunnable = func(ts *TState, m ghostcore.Message) {
		if !ts.Enqueued {
			ts.Enqueued = true
			heap.Push(&p.heap, &heapEnt{ts: ts, seq: p.seq})
			p.seq++
		}
	}
	p.tr.OnRemoved = func(ts *TState, m ghostcore.Message) {
		if e, ok := p.heap.by[ts]; ok && e.idx >= 0 {
			heap.Remove(&p.heap, e.idx)
		}
		ts.Enqueued = false
	}
	p.tr.Rebuild(ctx)
}

// OnMessage implements agentsdk.GlobalPolicy.
func (p *Search) OnMessage(ctx *agentsdk.Context, m ghostcore.Message) {
	p.tr.HandleMessage(ctx, m)
}

// Schedule implements agentsdk.GlobalPolicy: least-runtime threads first,
// each to the nearest idle CPU in its mask.
func (p *Search) Schedule(ctx *agentsdk.Context) []agentsdk.Assignment {
	now := ctx.Now()
	topo := ctx.Topology()
	idle := ctx.IdleMask()
	var out []agentsdk.Assignment
	var skipped []*heapEnt
	for p.heap.Len() > 0 && !idle.Empty() {
		e := heap.Pop(&p.heap).(*heapEnt)
		ts := e.ts
		if ts.Thread.State() != kernel.StateRunnable {
			ts.Enqueued = false
			continue
		}
		cpu, quality := p.bestCPU(topo, ts.Thread, idle)
		if cpu == hw.NoCPU {
			skipped = append(skipped, e)
			continue
		}
		// Optionally hold for the preferred CCX rather than migrate.
		if p.HoldForCCX > 0 && quality > hw.DistCCX && ts.Thread.LastCPU() != hw.NoCPU &&
			now-ts.Thread.WakeTime() < p.HoldForCCX {
			skipped = append(skipped, e)
			continue
		}
		idle.Clear(cpu)
		ts.Enqueued = false
		p.tr.MarkScheduled(ts, int(cpu), now)
		out = append(out, agentsdk.Assignment{Thread: ts.Thread, CPU: cpu})
	}
	for _, e := range skipped {
		heap.Push(&p.heap, e) // revisit next scheduling loop (§4.4)
	}
	if len(skipped) > 0 {
		ctx.RepollAfter(10 * sim.Microsecond)
	}
	return out
}

// bestCPU picks the idle CPU closest to where t last ran, returning the
// achieved distance. With locality disabled it returns the lowest-id
// idle CPU in the mask.
func (p *Search) bestCPU(topo *hw.Topology, t *kernel.Thread, idle kernel.Mask) (hw.CPUID, hw.Distance) {
	last := t.LastCPU()
	best := hw.NoCPU
	bestDist := hw.DistRemote + 1
	// Intersecting up front walks only the idle CPUs in the thread's
	// mask — no per-CPU membership test in the loop.
	t.Affinity().And(idle).ForEach(func(cpu hw.CPUID) bool {
		var d hw.Distance
		switch {
		case last == hw.NoCPU || (!p.CCXAware && !p.NUMAAware):
			d = hw.DistCCX // all equal: first idle wins
		default:
			d = topo.Dist(last, cpu)
			if !p.CCXAware && d <= hw.DistSocket {
				// Socket-level only: anything on-socket is equal.
				d = hw.DistCCX
			}
			if !p.NUMAAware && d == hw.DistRemote {
				d = hw.DistSocket
			}
		}
		if d < bestDist {
			bestDist = d
			best = cpu
		}
		return bestDist > hw.DistSMT // stop early on a same-core hit
	})
	return best, bestDist
}

// OnTxnFail implements agentsdk.GlobalPolicy.
func (p *Search) OnTxnFail(ctx *agentsdk.Context, a agentsdk.Assignment, s ghostcore.TxnStatus) {
	ts := p.tr.Get(a.Thread.TID())
	if ts == nil {
		return
	}
	p.tr.MarkFailed(ts)
	if ts.Thread.State() == kernel.StateRunnable && !ts.Enqueued {
		ts.Enqueued = true
		heap.Push(&p.heap, &heapEnt{ts: ts, seq: p.seq})
		p.seq++
	} else if ts.Thread.State() != kernel.StateRunnable {
		ts.Runnable = false
	}
}

// QueueLen reports the number of waiting threads (for tests).
func (p *Search) QueueLen() int { return p.heap.Len() }
