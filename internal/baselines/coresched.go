package baselines

import (
	"container/heap"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// KernelCoreSched is the in-kernel secure core-scheduling baseline of
// §4.5 (Table 4's "In-kernel Core Scheduling"): a scheduling class that
// only runs threads with the same cookie (VM) on SMT siblings of one
// physical core, forcing a sibling idle when no matching thread exists.
// It is implemented per-CPU, which is exactly the awkwardness the paper
// points out ("the scheduler code can only run threads on the CPU it is
// currently executing on"); fairness comes from vruntime ordering plus a
// slice-expiry tick.
type KernelCoreSched struct {
	k *kernel.Kernel
	// CookieOf returns the isolation cookie (VM id), -1 for don't-care.
	CookieOf func(t *kernel.Thread) int
	// Slice is the fairness quantum before a running thread can be
	// preempted in favour of a waiting one.
	Slice sim.Duration

	queue csHeap
	seq   uint64
	// vrun/acct bookkeeping per thread (kept here, keyed by TID,
	// because kernel.Thread has no slot for third-party classes).
	st map[kernel.TID]*csThread
}

type csThread struct {
	t        *kernel.Thread
	vrun     float64
	acctMark sim.Duration
	sliceRan sim.Duration
	onRq     bool
	seq      uint64
	idx      int
}

type csHeap []*csThread

func (h csHeap) Len() int { return len(h) }
func (h csHeap) Less(i, j int) bool {
	if h[i].vrun != h[j].vrun {
		return h[i].vrun < h[j].vrun
	}
	return h[i].seq < h[j].seq
}
func (h csHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *csHeap) Push(x any) {
	e := x.(*csThread)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *csHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	e.idx = -1
	*h = old[:n-1]
	return e
}

// NewKernelCoreSched creates and registers the class. It runs at CFS+1
// priority so the VM threads it manages are not double-scheduled by CFS.
func NewKernelCoreSched(k *kernel.Kernel, cookieOf func(t *kernel.Thread) int) *KernelCoreSched {
	c := &KernelCoreSched{
		k:        k,
		CookieOf: cookieOf,
		Slice:    2 * sim.Millisecond,
		st:       make(map[kernel.TID]*csThread),
	}
	k.RegisterClass(c)
	return c
}

// Name implements kernel.Class.
func (c *KernelCoreSched) Name() string { return "coresched" }

// Priority implements kernel.Class: just above CFS.
func (c *KernelCoreSched) Priority() int { return kernel.PrioCFS + 1 }

// SwitchInCost implements kernel.Class.
func (c *KernelCoreSched) SwitchInCost() sim.Duration { return c.k.Cost().ContextSwitchCFS }

// ThreadAttached implements kernel.Class.
func (c *KernelCoreSched) ThreadAttached(t *kernel.Thread) {
	c.st[t.TID()] = &csThread{t: t, idx: -1, acctMark: t.CPUTime()}
}

// ThreadDetached implements kernel.Class.
func (c *KernelCoreSched) ThreadDetached(t *kernel.Thread, r kernel.DequeueReason) {
	delete(c.st, t.TID())
}

func (c *KernelCoreSched) account(e *csThread) {
	rt := e.t.RuntimeNow()
	delta := rt - e.acctMark
	if delta > 0 {
		e.vrun += float64(delta)
		e.sliceRan += delta
	}
	e.acctMark = rt
}

// Enqueue implements kernel.Class.
func (c *KernelCoreSched) Enqueue(t *kernel.Thread, cpu hw.CPUID, r kernel.EnqueueReason) {
	e := c.st[t.TID()]
	if e == nil || e.onRq {
		return
	}
	c.account(e)
	e.onRq = true
	e.seq = c.seq
	c.seq++
	heap.Push(&c.queue, e)
}

// Dequeue implements kernel.Class.
func (c *KernelCoreSched) Dequeue(t *kernel.Thread, r kernel.DequeueReason) {
	e := c.st[t.TID()]
	if e == nil {
		return
	}
	c.account(e)
	if e.onRq && e.idx >= 0 {
		heap.Remove(&c.queue, e.idx)
	}
	e.onRq = false
}

// siblingCookie returns the cookie running on c's SMT sibling, -1 if the
// sibling is idle or runs a non-cookie thread.
func (c *KernelCoreSched) siblingCookie(cpu *kernel.CPU) int {
	sib := cpu.Info.Sibling()
	if sib == hw.NoCPU {
		return -1
	}
	cur := c.k.CPU(sib).Curr()
	if cur == nil {
		return -1
	}
	if cur.Class() != kernel.Class(c) {
		// Non-managed thread on the sibling: treat as incompatible with
		// every cookie (we must not expose VM state next to it either
		// way in the paper's threat model; Linux forces idle only
		// against other cookies, so allow it).
		return -1
	}
	return c.CookieOf(cur)
}

// pickCompatible removes and returns the least-vruntime queued thread
// whose cookie matches `cookie` (-1 matches anything) and whose affinity
// admits cpu.
func (c *KernelCoreSched) pickCompatible(cpu *kernel.CPU, cookie int) *csThread {
	// Scan in heap order; the heap is small in our experiments.
	best := -1
	var bestEnt *csThread
	for i, e := range c.queue {
		if !e.t.Affinity().Has(cpu.ID) {
			continue
		}
		if cookie >= 0 && c.CookieOf(e.t) != cookie {
			continue
		}
		if bestEnt == nil || c.queue.Less(i, best) {
			best = i
			bestEnt = e
		}
	}
	if bestEnt == nil {
		return nil
	}
	heap.Remove(&c.queue, best)
	bestEnt.onRq = false
	return bestEnt
}

// Queued implements kernel.Class.
func (c *KernelCoreSched) Queued(cpu *kernel.CPU) bool {
	return c.pickPeek(cpu, c.siblingCookie(cpu)) != nil
}

// pickPeek returns the min-vruntime queued thread compatible with cookie
// (-1 matches anything) and cpu's affinity, without removing it.
func (c *KernelCoreSched) pickPeek(cpu *kernel.CPU, cookie int) *csThread {
	var best *csThread
	bestIdx := -1
	for i, e := range c.queue {
		if !e.t.Affinity().Has(cpu.ID) {
			continue
		}
		if cookie >= 0 && c.CookieOf(e.t) != cookie {
			continue
		}
		if best == nil || c.queue.Less(i, bestIdx) {
			best = e
			bestIdx = i
		}
	}
	return best
}

// Eligible implements kernel.Class: a running thread whose cookie no
// longer matches its sibling must vacate (forced idle).
func (c *KernelCoreSched) Eligible(cpu *kernel.CPU, running *kernel.Thread) bool {
	cookie := c.siblingCookie(cpu)
	return cookie < 0 || c.CookieOf(running) == cookie
}

// PickNext implements kernel.Class. A rotation (slice expiry with a
// fairer candidate waiting) may switch the whole core to another cookie:
// the mismatched sibling is forced off synchronously so that vCPUs of
// two VMs never co-execute, then it re-picks a matching thread.
func (c *KernelCoreSched) PickNext(cpu *kernel.CPU, prev *kernel.Thread) *kernel.Thread {
	if prev != nil {
		e := c.st[prev.TID()]
		c.account(e)
		// Rotation ignores the sibling cookie: the core follows us.
		cand := c.pickPeek(cpu, -1)
		if cand == nil {
			return prev
		}
		if e.sliceRan < c.Slice || cand.vrun >= e.vrun {
			return prev
		}
		heap.Remove(&c.queue, cand.idx)
		cand.onRq = false
		e.sliceRan = 0
		c.Enqueue(prev, cpu.ID, kernel.EnqPreempt)
		cand.sliceRan = 0
		cand.acctMark = cand.t.CPUTime()
		c.syncSibling(cpu, cand)
		return cand.t
	}
	// Fresh pick must match the sibling's cookie (forced idle if none).
	cand := c.pickCompatible(cpu, c.siblingCookie(cpu))
	if cand == nil {
		return nil
	}
	cand.sliceRan = 0
	cand.acctMark = cand.t.CPUTime()
	c.syncSibling(cpu, cand)
	return cand.t
}

// syncSibling enforces the core-wide cookie after this CPU switches to
// next: a mismatched sibling thread is kicked off immediately (no
// overlap window), and an idle sibling is nudged to pick up matching
// work.
func (c *KernelCoreSched) syncSibling(cpu *kernel.CPU, next *csThread) {
	sib := cpu.Info.Sibling()
	if sib == hw.NoCPU {
		return
	}
	sc := c.k.CPU(sib)
	cur := sc.Curr()
	switch {
	case cur != nil && cur.Class() == kernel.Class(c) && c.CookieOf(cur) != c.CookieOf(next.t):
		c.k.ForceOffCPU(cur)
	case cur == nil:
		c.k.Resched(sib)
	}
}

// SelectCPU implements kernel.Class: prefer a core whose sibling already
// runs this cookie, then a fully idle core, then anything allowed.
func (c *KernelCoreSched) SelectCPU(t *kernel.Thread) hw.CPUID {
	cookie := c.CookieOf(t)
	var match, idlePair, anyIdle, first hw.CPUID = hw.NoCPU, hw.NoCPU, hw.NoCPU, hw.NoCPU
	t.Affinity().ForEach(func(id hw.CPUID) bool {
		cpu := c.k.CPU(id)
		if first == hw.NoCPU {
			first = id
		}
		if !cpu.FreeForPlacement() {
			return true
		}
		sib := cpu.Info.Sibling()
		if sib == hw.NoCPU {
			if anyIdle == hw.NoCPU {
				anyIdle = id
			}
			return true
		}
		scur := c.k.CPU(sib).Curr()
		switch {
		case scur != nil && scur.Class() == kernel.Class(c) && c.CookieOf(scur) == cookie:
			if match == hw.NoCPU {
				match = id
			}
		case scur == nil:
			if idlePair == hw.NoCPU {
				idlePair = id
			}
		default:
			if anyIdle == hw.NoCPU {
				anyIdle = id
			}
		}
		return match == hw.NoCPU
	})
	for _, cand := range []hw.CPUID{match, idlePair, anyIdle, first} {
		if cand != hw.NoCPU {
			return cand
		}
	}
	return t.Affinity().First()
}

// WantsPreempt implements kernel.Class.
func (c *KernelCoreSched) WantsPreempt(cpu *kernel.CPU, curr, incoming *kernel.Thread) bool {
	return false
}

// Tick implements kernel.Class: slice expiry drives rotation.
func (c *KernelCoreSched) Tick(cpu *kernel.CPU, t *kernel.Thread) {
	e := c.st[t.TID()]
	if e == nil {
		return
	}
	c.account(e)
	if e.sliceRan >= c.Slice && c.pickPeek(cpu, -1) != nil {
		c.k.Resched(cpu.ID)
	}
}
