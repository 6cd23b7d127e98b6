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

	// core, ccx and socket hold each topology domain's CPUs, indexed by
	// the domain numbers of hw.CPU; bestCPU intersects them with the
	// candidate CPUs, nearest domain first.
	core, ccx, socket []kernel.Mask

	// out and skipped are Schedule's buffers, reused every step (see
	// the agentsdk.GlobalPolicy result contract).
	out     []agentsdk.Assignment
	skipped []*TState
}

// NewSearch builds the policy with all optimizations on.
func NewSearch() *Search {
	return &Search{NUMAAware: true, CCXAware: true}
}

// runtimeHeap orders waiting threads by (Runtime, heapSeq): least
// runtime first, FIFO among equals. Each TState records its own slot
// (heapIdx), so pushes, pops and removals allocate nothing.
type runtimeHeap []*TState

func (h runtimeHeap) Len() int { return len(h) }
func (h runtimeHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.Runtime != b.Runtime {
		return a.Runtime < b.Runtime
	}
	return a.heapSeq < b.heapSeq
}
func (h runtimeHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i + 1
	h[j].heapIdx = j + 1
}
func (h *runtimeHeap) Push(x any) {
	ts := x.(*TState)
	ts.heapIdx = len(*h) + 1
	*h = append(*h, ts)
}
func (h *runtimeHeap) Pop() any {
	old := *h
	n := len(old)
	ts := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	ts.heapIdx = 0
	return ts
}

// push queues ts behind every thread of equal runtime.
func (p *Search) push(ts *TState) {
	ts.Enqueued = true
	ts.heapSeq = p.seq
	p.seq++
	heap.Push(&p.heap, ts)
}

// Attach implements agentsdk.GlobalPolicy.
func (p *Search) Attach(ctx *agentsdk.Context) {
	p.buildLocality(ctx.Topology())
	p.heap = nil
	p.tr = NewTracker()
	p.tr.OnRunnable = func(ts *TState, m ghostcore.Message) {
		if !ts.Enqueued {
			p.push(ts)
		}
	}
	p.tr.OnRemoved = func(ts *TState, m ghostcore.Message) {
		if ts.heapIdx > 0 {
			heap.Remove(&p.heap, ts.heapIdx-1)
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
	out, skipped := p.out[:0], p.skipped[:0]
	for p.heap.Len() > 0 && !idle.Empty() {
		ts := heap.Pop(&p.heap).(*TState)
		if ts.Thread.State() != kernel.StateRunnable {
			ts.Enqueued = false
			continue
		}
		cpu, quality := p.bestCPU(topo, ts.Thread.LastCPU(), ts.Thread.Affinity().And(idle))
		if cpu == hw.NoCPU {
			skipped = append(skipped, ts)
			continue
		}
		// Optionally hold for the preferred CCX rather than migrate.
		if p.HoldForCCX > 0 && quality > hw.DistCCX && ts.Thread.LastCPU() != hw.NoCPU &&
			now-ts.Thread.WakeTime() < p.HoldForCCX {
			skipped = append(skipped, ts)
			continue
		}
		idle.Clear(cpu)
		ts.Enqueued = false
		p.tr.MarkScheduled(ts, int(cpu), now)
		out = append(out, agentsdk.Assignment{Thread: ts.Thread, CPU: cpu})
	}
	// Skipped threads keep their heapSeq, so they return to their old
	// place among equals.
	for _, ts := range skipped {
		heap.Push(&p.heap, ts) // revisit next scheduling loop (§4.4)
	}
	clear(skipped)
	p.out, p.skipped = out, skipped
	if len(skipped) > 0 {
		ctx.RetryAfter(10 * sim.Microsecond)
	}
	return out
}

// buildLocality fills the per-domain CPU masks bestCPU reads.
func (p *Search) buildLocality(topo *hw.Topology) {
	p.core = make([]kernel.Mask, topo.NumCores())
	p.ccx = make([]kernel.Mask, topo.NumCCXs())
	p.socket = make([]kernel.Mask, topo.NumSockets())
	for i := 0; i < topo.NumCPUs(); i++ {
		c := topo.CPU(hw.CPUID(i))
		p.core[c.Core].Set(c.ID)
		p.ccx[c.CCX].Set(c.ID)
		p.socket[c.Socket].Set(c.ID)
	}
}

// bestCPU picks the candidate CPU (idle, in the thread's mask) closest
// to last, where the thread last ran, returning the achieved distance.
// It takes the lowest CPU of the nearest domain that has a candidate:
// same core, then same CCX, then same socket, then anywhere. Within the
// core the lowest CPU wins even over last itself. With locality
// disabled, or no last CPU, it returns the lowest candidate.
func (p *Search) bestCPU(topo *hw.Topology, last hw.CPUID, cand kernel.Mask) (hw.CPUID, hw.Distance) {
	first := cand.First()
	if first == hw.NoCPU {
		return hw.NoCPU, hw.DistRemote + 1
	}
	if last == hw.NoCPU || (!p.CCXAware && !p.NUMAAware) {
		return first, hw.DistCCX // all equal: first idle wins
	}
	at := topo.CPU(last)
	if p.CCXAware {
		if c := cand.And(p.core[at.Core]).First(); c != hw.NoCPU {
			return c, topo.Dist(last, c)
		}
		if c := cand.And(p.ccx[at.CCX]).First(); c != hw.NoCPU {
			return c, hw.DistCCX
		}
	}
	if !p.NUMAAware {
		return first, hw.DistSocket // CCX-level only: off-CCX is equal
	}
	if c := cand.And(p.socket[at.Socket]).First(); c != hw.NoCPU {
		if !p.CCXAware {
			return c, hw.DistCCX // socket-level only: on-socket is equal
		}
		return c, hw.DistSocket
	}
	return first, hw.DistRemote
}

// OnTxnFail implements agentsdk.GlobalPolicy.
func (p *Search) OnTxnFail(ctx *agentsdk.Context, a agentsdk.Assignment, s ghostcore.TxnStatus) {
	ts := p.tr.Get(a.Thread.TID())
	if ts == nil {
		return
	}
	if p.tr.MarkFailed(ts) && !ts.Enqueued {
		p.push(ts)
	}
}
