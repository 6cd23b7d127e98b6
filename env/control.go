package env

import "ghost"

// controlPolicy is the global agent policy behind an Env: it mirrors
// thread state with a PolicyTracker, executes the controller's pending
// Dispatch/Preempt actions at its next step, and (with AutoDispatch)
// fills remaining idle CPUs band-FIFO. The global agent spins, so
// pending actions take effect within one agent-loop iteration of
// simulated time after the Step that queued them.
type controlPolicy struct {
	auto bool
	tr   *ghost.PolicyTracker
	// queue holds runnable threads in became-runnable order; bands
	// reorder dispatch preference without reordering the slice.
	queue []*ghost.PolicyThreadState
	since map[ghost.TID]ghost.Time
	bands map[ghost.TID]int

	// Actions queued by Env.Step for the next agent step.
	pendDispatch []Action
	pendPreempt  []int

	failedTxns uint64

	// ctx is the attach-time policy context, kept for SnapshotLoad's
	// TID resolution (Env.Fork restores a control policy mid-run).
	ctx *ghost.PolicyContext
}

func newControlPolicy(auto bool) *controlPolicy {
	return &controlPolicy{
		auto:  auto,
		since: make(map[ghost.TID]ghost.Time),
		bands: make(map[ghost.TID]int),
	}
}

// Attach implements ghost.GlobalPolicy.
func (p *controlPolicy) Attach(ctx *ghost.PolicyContext) {
	p.ctx = ctx
	p.tr = ghost.NewPolicyTracker()
	p.tr.OnRunnable = func(ts *ghost.PolicyThreadState, m ghost.Message) {
		ts.CPU = -1
		p.enqueue(ts, ctx.Now())
	}
	p.tr.OnRemoved = func(ts *ghost.PolicyThreadState, m ghost.Message) {
		p.dequeue(ts)
		delete(p.since, ts.Thread.TID())
	}
	p.tr.Rebuild(ctx)
}

func (p *controlPolicy) enqueue(ts *ghost.PolicyThreadState, now ghost.Time) {
	if ts.Enqueued {
		return
	}
	ts.Enqueued = true
	p.queue = append(p.queue, ts)
	p.since[ts.Thread.TID()] = now
}

func (p *controlPolicy) dequeue(ts *ghost.PolicyThreadState) {
	if !ts.Enqueued {
		return
	}
	ts.Enqueued = false
	for i, e := range p.queue {
		if e == ts {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			return
		}
	}
}

// OnMessage implements ghost.GlobalPolicy.
func (p *controlPolicy) OnMessage(ctx *ghost.PolicyContext, m ghost.Message) {
	p.tr.HandleMessage(ctx, m)
}

// popFor removes and returns the queued thread with the lowest band
// (earliest-enqueued within a band) that may run on cpu, nil if none.
func (p *controlPolicy) popFor(cpu ghost.CPUID) *ghost.PolicyThreadState {
	best := -1
	for i, ts := range p.queue {
		if ts.Thread.State() != ghost.ThreadRunnable || !ts.Thread.Affinity().Has(cpu) {
			continue
		}
		if best < 0 || p.bands[ts.Thread.TID()] < p.bands[p.queue[best].Thread.TID()] {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	ts := p.queue[best]
	p.queue = append(p.queue[:best], p.queue[best+1:]...)
	ts.Enqueued = false
	return ts
}

// Schedule implements ghost.GlobalPolicy.
func (p *controlPolicy) Schedule(ctx *ghost.PolicyContext) []ghost.Assignment {
	now := ctx.Now()
	var out []ghost.Assignment

	for _, cpu := range p.pendPreempt {
		c := ghost.CPUID(cpu)
		if c == ctx.GlobalCPU() {
			continue
		}
		ctx.PreemptCPU(c)
	}
	p.pendPreempt = p.pendPreempt[:0]

	// The idle set is computed after preempts (PreemptCPU frees a CPU
	// synchronously, so preempt-then-redispatch within one Step works)
	// and excludes CPUs the enclave holds for an install in flight: a
	// commit there would displace that install and hand its thread back.
	// Dispatches to non-idle CPUs are dropped; the thread stays queued.
	idle := ctx.IdleCPUs()
	idleSet := make(map[ghost.CPUID]bool, len(idle))
	for _, c := range idle {
		idleSet[c] = true
	}
	// taken marks CPUs already claimed by an assignment this round;
	// IdleCPUs cannot see in-round commits.
	taken := make(map[ghost.CPUID]bool)
	place := func(ts *ghost.PolicyThreadState, cpu ghost.CPUID) {
		p.tr.MarkScheduled(ts, int(cpu), now)
		taken[cpu] = true
		out = append(out, ghost.Assignment{Thread: ts.Thread, CPU: cpu})
	}

	for _, a := range p.pendDispatch {
		ts := p.tr.Get(ghost.TID(a.TID))
		if ts == nil || !ts.Enqueued || ts.Thread.State() != ghost.ThreadRunnable {
			continue
		}
		cpu := ghost.CPUID(a.CPU)
		if a.CPU < 0 {
			cpu = ghost.NoCPU
			for _, c := range idle {
				if !taken[c] {
					cpu = c
					break
				}
			}
			if cpu == ghost.NoCPU {
				continue
			}
		}
		if cpu == ctx.GlobalCPU() || taken[cpu] || !idleSet[cpu] || !ts.Thread.Affinity().Has(cpu) {
			continue
		}
		p.dequeue(ts)
		place(ts, cpu)
	}
	p.pendDispatch = p.pendDispatch[:0]

	if p.auto {
		for _, cpu := range idle {
			if taken[cpu] {
				continue
			}
			if ts := p.popFor(cpu); ts != nil {
				place(ts, cpu)
			}
		}
	}
	return out
}

// OnTxnFail implements ghost.GlobalPolicy: the thread re-enters the
// queue (if still runnable) and the failure is surfaced in
// Observation.FailedTxns.
func (p *controlPolicy) OnTxnFail(ctx *ghost.PolicyContext, a ghost.Assignment, s ghost.TxnStatus) {
	p.failedTxns++
	ts := p.tr.Get(a.Thread.TID())
	if ts == nil {
		return
	}
	if p.tr.MarkFailed(ts) {
		p.enqueue(ts, ctx.Now())
	}
}
