package kernel

import (
	"container/heap"

	"ghost/internal/hw"
	"ghost/internal/sim"
)

// niceWeights is the Linux sched_prio_to_weight table: the CFS weight for
// nice values -20..19. NICE_0 (index 20) is 1024.
var niceWeights = [40]int{
	88761, 71755, 56483, 46273, 36291,
	29154, 23254, 18705, 14949, 11916,
	9548, 7620, 6100, 4904, 3906,
	3121, 2501, 1991, 1586, 1277,
	1024, 820, 655, 526, 423,
	335, 272, 215, 172, 137,
	110, 87, 70, 56, 45,
	36, 29, 23, 18, 15,
}

const nice0Weight = 1024

// CFS's tunables, fixed at Linux's defaults.
const (
	targetLatency  = 6 * sim.Millisecond   // sched_latency_ns
	minGranularity = 750 * sim.Microsecond // sched_min_granularity_ns
	wakeupGran     = sim.Millisecond       // sched_wakeup_granularity_ns
	balancePeriod  = 4 * sim.Millisecond   // periodic load-balance cadence
	migrationCost  = 500 * sim.Microsecond // sched_migration_cost_ns (newidle gate)
)

func weightOf(nice int) int {
	if nice < -20 {
		nice = -20
	}
	if nice > 19 {
		nice = 19
	}
	return niceWeights[nice+20]
}

// cfsThread is the per-thread CFS state embedded in Thread.
type cfsThread struct {
	vruntime float64 // weighted virtual runtime, ns at nice-0 speed
	acctMark sim.Duration
	sliceRan sim.Duration // runtime since last switch-in, for slice expiry
	onRq     bool
	rqCPU    hw.CPUID
	seq      uint64
	idx      int
}

// cfsRq is one CPU's CFS runqueue: a min-heap on vruntime. Push and Pop,
// which every container/heap operation ends in, keep the queue's bit of
// the class's queued mask in step with whether it is non-empty.
type cfsRq struct {
	threads []*Thread
	minVrun float64
	cpu     hw.CPUID
	queued  *Mask
}

func (q *cfsRq) Len() int { return len(q.threads) }
func (q *cfsRq) Less(i, j int) bool {
	a, b := &q.threads[i].cfs, &q.threads[j].cfs
	if a.vruntime != b.vruntime {
		return a.vruntime < b.vruntime
	}
	return a.seq < b.seq
}
func (q *cfsRq) Swap(i, j int) {
	q.threads[i], q.threads[j] = q.threads[j], q.threads[i]
	q.threads[i].cfs.idx = i
	q.threads[j].cfs.idx = j
}
func (q *cfsRq) Push(x any) {
	t := x.(*Thread)
	t.cfs.idx = len(q.threads)
	q.threads = append(q.threads, t)
	q.queued.SetTo(q.cpu, true)
}
func (q *cfsRq) Pop() any {
	n := len(q.threads)
	t := q.threads[n-1]
	q.threads[n-1] = nil
	t.cfs.idx = -1
	q.threads = q.threads[:n-1]
	q.queued.SetTo(q.cpu, n > 1)
	return t
}

// CFS is a Completely Fair Scheduler: per-CPU vruntime-ordered runqueues
// with nice weighting, wakeup placement by cache distance, wake
// preemption, idle stealing, and periodic load balancing. It reproduces
// the behavioural properties of kernel/sched/fair.c that the paper's
// evaluation depends on: millisecond-scale rebalancing (§4.4) and
// fair sharing by nice value (§4.2).
type CFS struct {
	k   *Kernel
	rqs []*cfsRq
	seq uint64

	// queued is {c : c's runqueue is non-empty}; cfsRq.Push/Pop and
	// restoreRec are its only writers. Idle stealing and the load
	// balancer walk it instead of every runqueue.
	queued Mask

	// steal is the thread Queued found for idle CPU stealCPU, handed to
	// the PickNext of the same scheduling pass so the runqueues are
	// searched once per pass; stealCPU is hw.NoCPU when nothing is held.
	steal    *Thread
	stealCPU hw.CPUID

	// New-idle balance gating, faithful to Linux: a CPU whose recent
	// idle periods are shorter than migrationCost skips idle stealing
	// (it expects local work soon), leaving imbalances to the periodic
	// load balancer — the millisecond-scale rebalancing §4.4 contrasts
	// with ghOSt's µs-scale reaction.
	idleStart []sim.Time
	avgIdle   []sim.Duration
}

// NewCFS creates the CFS class and its periodic load balancer, and
// registers it with the kernel.
func NewCFS(k *Kernel) *CFS {
	c := &CFS{
		k:         k,
		rqs:       make([]*cfsRq, k.NumCPUs()),
		idleStart: make([]sim.Time, k.NumCPUs()),
		avgIdle:   make([]sim.Duration, k.NumCPUs()),
		stealCPU:  hw.NoCPU,
	}
	for i := range c.rqs {
		c.rqs[i] = &cfsRq{cpu: hw.CPUID(i), queued: &c.queued}
	}
	k.AddIdleHook(func(cpu *CPU) { c.idleStart[cpu.ID] = k.Now() })
	k.Engine().AfterCall(balancePeriod, balanceFire, c)
	k.RegisterClass(c)
	return c
}

// balanceFire runs the periodic load balancer and arms its next pass
// (a snapshot event kind of Kernel.SnapshotEvents).
func balanceFire(a any) {
	c := a.(*CFS)
	c.loadBalance()
	c.k.eng.AfterCall(balancePeriod, balanceFire, c)
}

// Name implements Class.
func (c *CFS) Name() string { return "cfs" }

// Priority implements Class.
func (c *CFS) Priority() int { return PrioCFS }

// SwitchInCost implements Class.
func (c *CFS) SwitchInCost() sim.Duration { return c.k.cost.ContextSwitchCFS }

// ThreadAttached implements Class.
func (c *CFS) ThreadAttached(t *Thread) {
	t.cfs = cfsThread{idx: -1, rqCPU: hw.NoCPU, acctMark: t.cpuTime}
}

// ThreadDetached implements Class.
func (c *CFS) ThreadDetached(t *Thread, r DequeueReason) {}

// account charges t's runtime since the last accounting mark to its
// vruntime.
func (c *CFS) account(t *Thread) {
	rt := t.RuntimeNow()
	delta := rt - t.cfs.acctMark
	if delta > 0 {
		t.cfs.vruntime += float64(delta) * float64(nice0Weight) / float64(weightOf(t.nice))
		t.cfs.sliceRan += delta
	}
	t.cfs.acctMark = rt
}

// Enqueue implements Class.
func (c *CFS) Enqueue(t *Thread, cpu hw.CPUID, r EnqueueReason) {
	if t.cfs.onRq {
		return
	}
	c.account(t)
	rq := c.rqs[cpu]
	if r == EnqWake || r == EnqClassChange {
		// Sleeper placement: don't let long sleepers hoard credit, and
		// don't punish them either.
		min := rq.minVrun
		credit := min - float64(targetLatency/2)
		if t.cfs.vruntime < credit {
			t.cfs.vruntime = credit
		}
	}
	t.cfs.onRq = true
	t.cfs.rqCPU = cpu
	t.cfs.seq = c.seq
	c.seq++
	heap.Push(rq, t)
}

// Dequeue implements Class.
func (c *CFS) Dequeue(t *Thread, r DequeueReason) {
	c.account(t)
	if t.cfs.onRq && t.cfs.idx >= 0 {
		heap.Remove(c.rqs[t.cfs.rqCPU], t.cfs.idx)
	}
	t.cfs.onRq = false
	t.cfs.rqCPU = hw.NoCPU
}

// Queued implements Class.
func (c *CFS) Queued(cpu *CPU) bool {
	if c.rqs[cpu.ID].Len() > 0 {
		return true
	}
	// Idle stealing: an idle CPU claims queued work from elsewhere.
	if cpu.Idle() {
		if st := c.findSteal(cpu); st != nil {
			c.steal, c.stealCPU = st, cpu.ID
			return true
		}
	}
	return false
}

// findSteal locates a stealable thread for idle CPU c: a queued thread on
// the busiest runqueue whose affinity admits c, the lowest-numbered
// runqueue among equally busy ones. Gated like Linux's newidle_balance:
// CPUs whose average idle period is below migrationCost don't steal.
func (c *CFS) findSteal(cpu *CPU) *Thread {
	avg := c.avgIdle[cpu.ID]
	// Graded gate, like newidle_balance walking the domain hierarchy:
	// very short idles skip balancing entirely; moderate idles only
	// steal within the socket; long idles steal machine-wide.
	if avg != 0 && avg < migrationCost/5 {
		return nil
	}
	cands := c.queued
	cands.SetTo(cpu.ID, false)
	if avg != 0 && avg < migrationCost {
		cands = cands.And(c.k.sockets[cpu.Info.Socket])
	}
	var best *Thread
	bestLen := 0
	cands.ForEach(func(id hw.CPUID) bool {
		rq := c.rqs[id]
		if rq.Len() > bestLen {
			for _, t := range rq.threads {
				if t.affinity.Has(cpu.ID) {
					best = t
					bestLen = rq.Len()
					break
				}
			}
		}
		return true
	})
	if placementAudit != nil {
		placementAudit.steal(c, cpu, best)
	}
	return best
}

// Eligible implements Class: CFS threads keep their CPU until preempted.
func (c *CFS) Eligible(cpu *CPU, running *Thread) bool { return true }

// PickNext implements Class.
func (c *CFS) PickNext(cpu *CPU, prev *Thread) *Thread {
	st, held := c.steal, c.stealCPU == cpu.ID
	c.steal, c.stealCPU = nil, hw.NoCPU
	rq := c.rqs[cpu.ID]
	if rq.Len() == 0 {
		if prev != nil {
			return prev
		}
		if !held {
			st = c.findSteal(cpu)
		} else if placementAudit != nil {
			placementAudit.steal(c, cpu, st)
		}
		if st != nil {
			heap.Remove(c.rqs[st.cfs.rqCPU], st.cfs.idx)
			st.cfs.onRq = false
			st.cfs.rqCPU = hw.NoCPU
			return st
		}
		return nil
	}
	cand := rq.threads[0]
	if prev != nil {
		c.account(prev)
		// Keep prev unless the candidate has meaningfully lower
		// vruntime (wakeup granularity hysteresis).
		if prev.cfs.vruntime <= cand.cfs.vruntime+float64(wakeupGran) {
			return prev
		}
		heap.Pop(rq)
		cand.cfs.onRq = false
		cand.cfs.rqCPU = hw.NoCPU
		prev.cfs.sliceRan = 0
		c.Enqueue(prev, cpu.ID, EnqPreempt)
		c.updateMin(rq)
		cand.cfs.sliceRan = 0
		return cand
	}
	heap.Pop(rq)
	cand.cfs.onRq = false
	cand.cfs.rqCPU = hw.NoCPU
	cand.cfs.sliceRan = 0
	cand.cfs.acctMark = cand.cpuTime
	c.updateMin(rq)
	c.noteLeaveIdle(cpu)
	return cand
}

// noteLeaveIdle folds the just-ended idle period into the CPU's
// exponentially weighted average idle time.
func (c *CFS) noteLeaveIdle(cpu *CPU) {
	start := c.idleStart[cpu.ID]
	if start == 0 {
		return
	}
	c.idleStart[cpu.ID] = 0
	dur := c.k.Now() - start
	if c.avgIdle[cpu.ID] == 0 {
		c.avgIdle[cpu.ID] = dur
	} else {
		c.avgIdle[cpu.ID] = (3*c.avgIdle[cpu.ID] + dur) / 4
	}
}

func (c *CFS) updateMin(rq *cfsRq) {
	if rq.Len() > 0 {
		if v := rq.threads[0].cfs.vruntime; v > rq.minVrun {
			rq.minVrun = v
		}
	}
}

// SelectCPU implements Class. Faithful to select_idle_sibling: a waking
// thread only searches its last CPU's LLC domain (CCX) for an idle CPU;
// cross-LLC moves happen via idle stealing and the periodic load
// balancer, at their own cadence — the CFS behaviour whose tail-latency
// cost §4.4 measures. Brand-new threads (no last CPU) are spread
// machine-wide, like fork balancing. With no CPU of the domain free, the
// least-loaded one takes the thread.
func (c *CFS) SelectCPU(t *Thread) hw.CPUID {
	k := c.k
	last := t.lastCPU
	if last != hw.NoCPU && t.affinity.Has(last) && k.cpus[last].FreeForPlacement() {
		return last
	}
	domain := t.affinity
	if last != hw.NoCPU {
		// Affinity may exclude the LLC domain entirely: then the whole
		// mask is the domain.
		if d := t.affinity.And(k.ccx[k.cpus[last].Info.CCX]); !d.Empty() {
			domain = d
		}
	}
	id := k.nearestFree(domain, last)
	if id == hw.NoCPU {
		leastLoad := 1 << 30
		domain.ForEach(func(cpu hw.CPUID) bool {
			if l := c.load(cpu); l < leastLoad {
				leastLoad, id = l, cpu
			}
			return leastLoad > 0
		})
	}
	if placementAudit != nil {
		placementAudit.cfsCPU(c, t, id)
	}
	return id
}

// load is cpu's CFS load: its queued threads plus a running CFS thread.
func (c *CFS) load(cpu hw.CPUID) int {
	n := c.rqs[cpu].Len()
	if cur := c.k.cpus[cpu].curr; cur != nil && cur.class == c {
		n++
	}
	return n
}

// WantsPreempt implements Class: wake preemption when the incoming thread
// is owed meaningfully more CPU than the running one.
func (c *CFS) WantsPreempt(cpu *CPU, curr, incoming *Thread) bool {
	c.account(curr)
	return curr.cfs.vruntime > incoming.cfs.vruntime+float64(wakeupGran)
}

// Tick implements Class: slice-expiry preemption.
func (c *CFS) Tick(cpu *CPU, t *Thread) {
	c.account(t)
	rq := c.rqs[cpu.ID]
	if rq.Len() == 0 {
		return
	}
	nr := rq.Len() + 1
	slice := targetLatency / sim.Duration(nr)
	if slice < minGranularity {
		slice = minGranularity
	}
	if t.cfs.sliceRan >= slice {
		c.k.Resched(cpu.ID)
	}
}

// loadBalance evens queue lengths across the machine every
// balancePeriod: repeated migrations from the busiest runqueue to the
// least-loaded CPU admitted by each candidate's affinity, including idle
// pulls of single stranded threads. This is CFS's millisecond-scale
// rebalancing cadence.
func (c *CFS) loadBalance() {
	moves := c.k.NumCPUs()/8 + 1
	for m := 0; m < moves; m++ {
		if !c.balanceOnce() {
			return
		}
	}
}

// balanceOnce performs at most one migration; reports whether it did.
func (c *CFS) balanceOnce() bool {
	var src hw.CPUID = hw.NoCPU
	bestLen := 0
	c.queued.ForEach(func(id hw.CPUID) bool {
		if n := c.rqs[id].Len(); n > bestLen {
			bestLen, src = n, id
		}
		return true
	})
	if src == hw.NoCPU {
		return false
	}
	srcLoad := c.load(src)
	for _, t := range c.rqs[src].threads {
		var tgt hw.CPUID = hw.NoCPU
		tgtLoad := 1 << 30
		t.affinity.ForEach(func(id hw.CPUID) bool {
			if id == src {
				return true
			}
			if l := c.load(id); l < tgtLoad {
				tgtLoad = l
				tgt = id
			}
			return tgtLoad > 0
		})
		if tgt == hw.NoCPU {
			continue
		}
		// Migrate on a 2+ imbalance, or pull onto a fully idle CPU.
		if srcLoad-tgtLoad >= 2 || (tgtLoad == 0 && c.k.cpus[tgt].Idle()) {
			heap.Remove(c.rqs[src], t.cfs.idx)
			t.cfs.onRq = false
			t.cfs.seq = c.seq
			c.seq++
			c.Enqueue(t, tgt, EnqPreempt)
			c.k.Resched(tgt)
			return true
		}
	}
	return false
}
