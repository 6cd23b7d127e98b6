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
	tr     *Tracker
	rqs    map[hw.CPUID]runq
	home   map[kernel.TID]hw.CPUID
	cpus   []hw.CPUID
	nextRR int
	// ctx is retained from Attach for snapshot TID resolution.
	ctx *agentsdk.Context
}

// NewPerCPUFIFO builds the policy.
func NewPerCPUFIFO() *PerCPUFIFO { return &PerCPUFIFO{} }

// Attach implements agentsdk.PerCPUPolicy.
func (p *PerCPUFIFO) Attach(ctx *agentsdk.Context) {
	p.ctx = ctx
	p.rqs = make(map[hw.CPUID]runq)
	p.home = make(map[kernel.TID]hw.CPUID)
	p.cpus = ctx.Enclave.CPUs().CPUs()
	p.tr = NewTracker()
	p.tr.OnRunnable = func(ts *TState, m ghostcore.Message) {
		cpu, ok := p.home[ts.Thread.TID()]
		if !ok {
			cpu = p.cpus[0]
		}
		p.push(cpu, ts)
	}
	p.tr.OnRemoved = func(ts *TState, m ghostcore.Message) {
		if m.Type == ghostcore.MsgThreadDead {
			cpu := p.home[ts.Thread.TID()]
			q := p.rqs[cpu]
			q.remove(ts)
			p.rqs[cpu] = q
			delete(p.home, ts.Thread.TID())
		}
	}
	p.tr.Rebuild(ctx)
}

// push queues ts on cpu's runqueue.
func (p *PerCPUFIFO) push(cpu hw.CPUID, ts *TState) {
	q := p.rqs[cpu]
	q.push(ts)
	p.rqs[cpu] = q
}

// AssignCPU implements agentsdk.PerCPUPolicy: round-robin placement.
func (p *PerCPUFIFO) AssignCPU(ctx *agentsdk.Context, t *kernel.Thread) hw.CPUID {
	for range p.cpus {
		cpu := p.cpus[p.nextRR%len(p.cpus)]
		p.nextRR++
		if t.Affinity().Has(cpu) {
			p.home[t.TID()] = cpu
			return cpu
		}
	}
	cpu := p.cpus[0]
	p.home[t.TID()] = cpu
	return cpu
}

// OnMessage implements agentsdk.PerCPUPolicy.
func (p *PerCPUFIFO) OnMessage(ctx *agentsdk.Context, cpu hw.CPUID, m ghostcore.Message) {
	if m.TID != 0 {
		p.home[m.TID] = cpu
	}
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
		// Re-home the thread: subsequent messages flow here.
		p.home[ts.Thread.TID()] = cpu
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
	q := p.rqs[victim]
	ts := q.popFor(thief)
	p.rqs[victim] = q
	return ts
}

// OnTxnFail implements agentsdk.PerCPUPolicy.
func (p *PerCPUFIFO) OnTxnFail(ctx *agentsdk.Context, cpu hw.CPUID, t *kernel.Thread, s ghostcore.TxnStatus) {
	ts := p.tr.Get(t.TID())
	if ts == nil {
		return
	}
	if p.tr.MarkFailed(ts) {
		p.push(cpu, ts)
	}
}
