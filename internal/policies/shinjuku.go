package policies

import (
	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/tunable"
)

// Shinjuku implements the §4.2 preemptive centralized policy: runnable
// worker threads wait in a FIFO; each gets at most Slice of CPU before a
// transactional preemption puts it at the back. This reproduces the
// Shinjuku system's preemptive request scheduling for dispersive
// workloads, in policy code rather than a dedicated data plane.
//
// With Batch set, it becomes the Shinjuku+Shenango policy: threads
// classified as batch soak up idle CPUs but are displaced the moment
// latency-critical work appears — the paper's 17-line extension.
type Shinjuku struct {
	// Slice is the preemption timeslice (30 µs in the paper).
	Slice sim.Duration
	// Batch classifies low-priority batch threads (nil: none); external
	// code supplies it via ghost.NewShinjukuShenangoPolicy, whose
	// facade-typed ghost.ThreadSelector adapts directly onto it.
	Batch func(t *kernel.Thread) bool
	// MaxCommits bounds the assignments one Schedule round may emit
	// (the dispatcher's commit batch size); 0 is unbounded. Work left
	// over stays queued for the next agent step.
	MaxCommits int

	tr      *Tracker
	fifo    runq // latency-critical runnable FIFO
	batchq  runq
	running placements // latency threads the policy placed
	batchOn placements // batch threads the policy placed
	tun     *tunable.Set
	// out is Schedule's result buffer, reused every step (see the
	// agentsdk.GlobalPolicy result contract).
	out []agentsdk.Assignment

	// ctx is retained from Attach for snapshot TID resolution.
	ctx *agentsdk.Context
}

// NewShinjuku builds the policy with the paper's 30 µs timeslice.
func NewShinjuku() *Shinjuku {
	return &Shinjuku{Slice: 30 * sim.Microsecond}
}

// NewShinjukuShenango builds the combined policy (§4.2 "Multiple
// Workloads"): batch threads are recognised by the isBatch classifier.
func NewShinjukuShenango(isBatch func(t *kernel.Thread) bool) *Shinjuku {
	p := NewShinjuku()
	p.Batch = isBatch
	return p
}

func (p *Shinjuku) isBatch(t *kernel.Thread) bool {
	return p.Batch != nil && p.Batch(t)
}

// Attach implements agentsdk.GlobalPolicy.
func (p *Shinjuku) Attach(ctx *agentsdk.Context) {
	p.ctx = ctx
	p.running = newPlacements(ctx)
	p.batchOn = newPlacements(ctx)
	p.tr = NewTracker()
	p.tr.OnRunnable = func(ts *TState, m ghostcore.Message) {
		p.clearPlacement(ts)
		p.queue(ts).push(ts)
	}
	p.tr.OnRemoved = func(ts *TState, m ghostcore.Message) {
		p.clearPlacement(ts)
		p.queue(ts).remove(ts)
	}
	p.tr.Rebuild(ctx)
}

func (p *Shinjuku) clearPlacement(ts *TState) {
	p.running.release(ts)
	p.batchOn.release(ts)
	ts.CPU = -1
}

// queue returns the run queue ts belongs in: batchq for batch threads,
// the latency FIFO otherwise.
func (p *Shinjuku) queue(ts *TState) *runq {
	if p.isBatch(ts.Thread) {
		return &p.batchq
	}
	return &p.fifo
}

// OnMessage implements agentsdk.GlobalPolicy.
func (p *Shinjuku) OnMessage(ctx *agentsdk.Context, m ghostcore.Message) {
	p.tr.HandleMessage(ctx, m)
}

// Schedule implements agentsdk.GlobalPolicy: fill idle CPUs from the
// FIFO, displace batch work for latency work, enforce the timeslice with
// transactional preemptions, then hand leftovers to batch threads.
func (p *Shinjuku) Schedule(ctx *agentsdk.Context) []agentsdk.Assignment {
	now := ctx.Now()
	out := p.out[:0]
	// full reports the commit batch exhausted (MaxCommits); leftover
	// runnable work stays queued for the next step.
	full := func() bool { return p.MaxCommits > 0 && len(out) >= p.MaxCommits }
	place := func(ts *TState, cpu hw.CPUID, batch bool) {
		p.tr.MarkScheduled(ts, int(cpu), now)
		if batch {
			p.batchOn.put(cpu, ts)
		} else {
			p.running.put(cpu, ts)
		}
		out = append(out, agentsdk.Assignment{Thread: ts.Thread, CPU: cpu})
	}

	idle := ctx.IdleCPUs()
	// 1. Idle CPUs serve the latency FIFO first.
	rest := idle[:0]
	for _, cpu := range idle {
		if !full() {
			if ts := p.fifo.popFor(cpu); ts != nil {
				place(ts, cpu, false)
				continue
			}
		}
		rest = append(rest, cpu)
	}
	idle = rest

	// 2. Latency work still waiting displaces batch threads.
	for len(p.fifo) > 0 && !full() {
		victim := p.anyBatchCPU()
		if victim == hw.NoCPU {
			break
		}
		ts := p.fifo.popFor(victim)
		if ts == nil {
			break
		}
		p.batchOn.clear(victim)
		place(ts, victim, false)
	}

	// 3. Timeslice expiry: round-robin preemption of long requests.
	// The walk visits exactly the occupants that had expired when it
	// starts, in CPU order: the only slot it rewrites is the one it is
	// visiting (an occupant sits at its ts.CPU, see placements), and
	// the rewrite starts a fresh slice there.
	for exp := p.running.expired(now, p.Slice); !exp.Empty() && len(p.fifo) > 0 && !full(); {
		tgt := exp.First()
		exp.Clear(tgt)
		ts := p.fifo.popFor(tgt)
		if ts == nil {
			continue
		}
		// The commit preempts the occupant; its THREAD_PREEMPTED
		// message re-enqueues it at the back of the FIFO.
		place(ts, tgt, false)
	}

	// 4. Spare capacity goes to batch threads (Shenango extension).
	for _, cpu := range idle {
		if full() {
			break
		}
		if ts := p.batchq.popFor(cpu); ts != nil {
			place(ts, cpu, true)
		}
	}

	p.repoll(ctx, full())
	p.out = out
	return out
}

// repoll arms the agent's timer for the next slice expiry while the FIFO
// holds work, which an expiry preempts for (step 3 of Schedule), or while
// batch work waits that no round will place unasked: cut is set when
// MaxCommits ended the round or a failed commit re-queued a thread
// (DESIGN.md §3k).
func (p *Shinjuku) repoll(ctx *agentsdk.Context, cut bool) {
	if len(p.fifo) == 0 && (!cut || len(p.batchq) == 0) {
		return
	}
	if next := p.running.nextExpiry(ctx.Now(), p.Slice); next > 0 {
		ctx.RepollAfter(next)
	}
}

// anyBatchCPU returns the lowest CPU running a batch thread the policy
// placed, hw.NoCPU if none.
func (p *Shinjuku) anyBatchCPU() hw.CPUID {
	for occ := p.batchOn.occ; !occ.Empty(); {
		cpu := occ.First()
		if p.batchOn.at(cpu).Thread.State() == kernel.StateRunning {
			return cpu
		}
		occ.Clear(cpu)
	}
	return hw.NoCPU
}

// OnTxnFail implements agentsdk.GlobalPolicy.
func (p *Shinjuku) OnTxnFail(ctx *agentsdk.Context, a agentsdk.Assignment, s ghostcore.TxnStatus) {
	ts := p.tr.Get(a.Thread.TID())
	if ts == nil {
		return
	}
	p.clearPlacement(ts)
	if p.tr.MarkFailed(ts) {
		p.queue(ts).push(ts)
		p.repoll(ctx, true)
	}
}

// Tunables implements tunable.Policy: the knobs the auto-tuner may
// search (cmd/ghost-tune).
func (p *Shinjuku) Tunables() *tunable.Set {
	if p.tun == nil {
		p.tun = tunable.NewSet().
			Add(tunable.Tunable{
				Name: "slice_us", Doc: "preemption timeslice in µs (paper: 30)",
				Min: 5, Max: 1000, Default: 30, Log: true,
				Apply: func(v float64) { p.Slice = sim.Duration(v * float64(sim.Microsecond)) },
			}).
			Add(tunable.Tunable{
				Name: "max_commits", Doc: "commit batch size per scheduling round (unbounded at 0; searched 1–64)",
				Min: 1, Max: 64, Default: 0, Integer: true,
				Apply: func(v float64) { p.MaxCommits = int(v) },
			})
	}
	return p.tun
}
