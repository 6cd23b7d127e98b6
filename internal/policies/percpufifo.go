package policies

import (
	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
)

// PerCPUFIFO is the per-CPU scheduling model of Fig 3: each CPU has a
// local agent with its own runqueue; new threads are placed round-robin;
// idle agents steal from the most loaded runqueue when their own is
// empty (the ASSOCIATE_QUEUE work-stealing flow of §3.1).
type PerCPUFIFO struct {
	tr   *Tracker
	rqs  []runq // by CPU
	cpus []hw.CPUID
	// heard is the CPU whose agent heard the message being handled: the
	// tracker's callbacks queue and dequeue the thread on its run queue.
	heard  hw.CPUID
	nextRR int
	// ctx is retained from Attach for snapshot TID resolution.
	ctx *agentsdk.Context
}

// NewPerCPUFIFO builds the policy.
func NewPerCPUFIFO() *PerCPUFIFO { return &PerCPUFIFO{} }

// Attach implements agentsdk.PerCPUPolicy.
func (p *PerCPUFIFO) Attach(ctx *agentsdk.Context) {
	p.ctx = ctx
	p.rqs = make([]runq, ctx.Topology().NumCPUs())
	p.cpus = ctx.Enclave.CPUs().CPUs()
	p.tr = NewTracker()
	p.tr.OnRunnable = func(ts *TState, m ghostcore.Message) { p.rqs[p.heard].push(ts) }
	p.tr.OnRemoved = func(ts *TState, m ghostcore.Message) {
		if m.Type == ghostcore.MsgThreadDead {
			p.rqs[p.heard].remove(ts)
		}
	}
	// Rebuild hears nothing: the runnable threads it finds queue on the
	// first CPU.
	p.heard = p.cpus[0]
	p.tr.Rebuild(ctx)
}

// AssignCPU implements agentsdk.PerCPUPolicy: round-robin placement.
func (p *PerCPUFIFO) AssignCPU(ctx *agentsdk.Context, t *kernel.Thread) hw.CPUID {
	for range p.cpus {
		cpu := p.cpus[p.nextRR%len(p.cpus)]
		p.nextRR++
		if t.Affinity().Has(cpu) {
			return cpu
		}
	}
	return p.cpus[0]
}

// OnMessage implements agentsdk.PerCPUPolicy.
func (p *PerCPUFIFO) OnMessage(ctx *agentsdk.Context, cpu hw.CPUID, m ghostcore.Message) {
	p.heard = cpu
	p.tr.HandleMessage(ctx, m)
}

// PickNext implements agentsdk.PerCPUPolicy.
func (p *PerCPUFIFO) PickNext(ctx *agentsdk.Context, cpu hw.CPUID) *kernel.Thread {
	q := p.rqs[cpu]
	for len(q) > 0 {
		ts := q[0]
		q = append(q[:0], q[1:]...) // keep the capacity: push stays alloc-free
		p.rqs[cpu] = q
		ts.Enqueued = false
		if ts.Thread.State() == kernel.StateRunnable && ts.Thread.Affinity().Has(cpu) {
			p.tr.MarkScheduled(ts, int(cpu), ctx.Now())
			return ts.Thread
		}
	}
	if ts := p.steal(cpu); ts != nil {
		p.tr.MarkScheduled(ts, int(cpu), ctx.Now())
		// Subsequent messages flow here.
		ctx.MoveThread(ts.Thread, cpu)
		return ts.Thread
	}
	return nil
}

// steal takes the oldest thread from the longest runqueue.
func (p *PerCPUFIFO) steal(thief hw.CPUID) *TState {
	var victim hw.CPUID
	best := 0
	for _, cpu := range p.cpus {
		if cpu == thief {
			continue
		}
		if n := len(p.rqs[cpu]); n > best {
			best = n
			victim = cpu
		}
	}
	if best == 0 {
		return nil
	}
	return p.rqs[victim].popFor(thief)
}

// OnTxnFail implements agentsdk.PerCPUPolicy.
func (p *PerCPUFIFO) OnTxnFail(ctx *agentsdk.Context, cpu hw.CPUID, t *kernel.Thread, s ghostcore.TxnStatus) {
	ts := p.tr.Get(t.TID())
	if ts == nil {
		return
	}
	if p.tr.MarkFailed(ts) {
		p.rqs[cpu].push(ts)
	}
}
