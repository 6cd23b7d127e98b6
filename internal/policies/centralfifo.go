package policies

import (
	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/tunable"
)

// CentralFIFO is the centralized FIFO policy: a single global agent
// keeps all runnable threads in FIFO order (optionally split into
// priority bands) and schedules them onto idle CPUs as capacity appears.
// It is the round-robin policy of Fig 5 and, with two bands and
// PreemptLower, the Snap policy of §4.3 (Snap workers get strict
// priority over antagonist threads, which only consume spare cycles).
type CentralFIFO struct {
	// Band classifies threads into priority bands (0 = highest). Nil
	// puts every thread in band 0. This is the internal hook; external
	// code configures it via ghost.NewBandedFIFOPolicy / ghost.SnapPolicy,
	// whose facade-typed ghost.BandFunc adapts directly onto it.
	Band func(t *kernel.Thread) int
	// NumBands is the number of bands (default 1).
	NumBands int
	// PreemptLower lets a queued thread preempt a running thread of a
	// strictly lower band via a transactional preemption.
	PreemptLower bool
	// Quantum, when positive, turns the FIFO into the round-robin of
	// Fig 5: a running thread that has held its CPU for Quantum is
	// transactionally preempted as soon as same-or-higher-band work is
	// queued for that CPU. Zero (the default) runs threads to
	// block/completion.
	Quantum sim.Duration

	tr     *Tracker
	queues []runq // one per band
	// running mirrors which tracked thread the policy put on each CPU.
	running placements
	tun     *tunable.Set
	// out is Schedule's result buffer, reused every step (see the
	// agentsdk.GlobalPolicy result contract).
	out []agentsdk.Assignment
	// ctx is retained from Attach for snapshot TID resolution.
	ctx *agentsdk.Context
}

// NewCentralFIFO builds the policy.
func NewCentralFIFO() *CentralFIFO { return &CentralFIFO{} }

func (p *CentralFIFO) bandOf(t *kernel.Thread) int {
	if p.Band == nil {
		return 0
	}
	b := p.Band(t)
	if b < 0 {
		b = 0
	}
	if b >= len(p.queues) {
		b = len(p.queues) - 1
	}
	return b
}

// Attach implements agentsdk.GlobalPolicy.
func (p *CentralFIFO) Attach(ctx *agentsdk.Context) {
	p.ctx = ctx
	if p.NumBands <= 0 {
		p.NumBands = 1
	}
	p.queues = make([]runq, p.NumBands)
	p.running = newPlacements(ctx)
	p.tr = NewTracker()
	p.tr.OnRunnable = func(ts *TState, m ghostcore.Message) {
		p.vacate(ts)
		p.queues[p.bandOf(ts.Thread)].push(ts)
	}
	p.tr.OnRemoved = func(ts *TState, m ghostcore.Message) {
		p.vacate(ts)
		p.queues[p.bandOf(ts.Thread)].remove(ts)
	}
	p.tr.Rebuild(ctx)
}

// vacate empties the slot of the CPU ts was last placed on, whoever
// holds it now, and forgets the placement. After a quantum preemption
// the slot holds the successor, which is then never timesliced; the
// schedules every report pins depend on this, so a fix (Shinjuku's
// placements.release) must re-record them.
func (p *CentralFIFO) vacate(ts *TState) {
	if ts.CPU >= 0 {
		p.running.clear(hw.CPUID(ts.CPU))
		ts.CPU = -1
	}
}

// OnMessage implements agentsdk.GlobalPolicy.
func (p *CentralFIFO) OnMessage(ctx *agentsdk.Context, m ghostcore.Message) {
	p.tr.HandleMessage(ctx, m)
}

// Schedule implements agentsdk.GlobalPolicy (the Fig 4 loop).
func (p *CentralFIFO) Schedule(ctx *agentsdk.Context) []agentsdk.Assignment {
	out := p.out[:0]
	now := ctx.Now()
	for _, cpu := range ctx.IdleCPUs() {
		assigned := false
		for b := 0; b < len(p.queues) && !assigned; b++ {
			if ts := p.queues[b].popFor(cpu); ts != nil {
				p.tr.MarkScheduled(ts, int(cpu), now)
				p.running.put(cpu, ts)
				out = append(out, agentsdk.Assignment{Thread: ts.Thread, CPU: cpu})
				assigned = true
			}
		}
	}
	if p.PreemptLower {
		// Remaining high-band work may displace running lower-band
		// threads (Snap workers over antagonists, §4.3).
		for b := 0; b < len(p.queues)-1; b++ {
			for len(p.queues[b]) > 0 {
				victimCPU := p.findLowerBandVictim(b)
				if victimCPU == hw.NoCPU {
					break
				}
				ts := p.queues[b].popFor(victimCPU)
				if ts == nil {
					break
				}
				p.tr.MarkScheduled(ts, int(victimCPU), now)
				p.running.put(victimCPU, ts)
				out = append(out, agentsdk.Assignment{Thread: ts.Thread, CPU: victimCPU})
			}
		}
	}
	if p.Quantum > 0 {
		// Round-robin (Fig 5): a thread past its quantum yields to queued
		// work of the same or a higher band; the preempted thread's
		// THREAD_PREEMPTED message re-enqueues it at the back. The walk
		// visits the slots expired when it starts, in CPU order; it
		// only rewrites the slot it is visiting.
		for exp := p.running.expired(now, p.Quantum); !exp.Empty(); {
			cpu := exp.First()
			exp.Clear(cpu)
			band := p.bandOf(p.running.at(cpu).Thread)
			var ts *TState
			for b := 0; b <= band && ts == nil; b++ {
				ts = p.queues[b].popFor(cpu)
			}
			if ts == nil {
				continue
			}
			p.tr.MarkScheduled(ts, int(cpu), now)
			p.running.put(cpu, ts)
			out = append(out, agentsdk.Assignment{Thread: ts.Thread, CPU: cpu})
		}
	}
	p.repoll(ctx)
	p.out = out
	return out
}

// repoll arms the agent's timer for the next quantum expiry while some
// band queue holds work, which an expiry preempts for (DESIGN.md §3k).
func (p *CentralFIFO) repoll(ctx *agentsdk.Context) {
	if p.Quantum <= 0 || !p.queued() {
		return
	}
	if next := p.running.nextExpiry(ctx.Now(), p.Quantum); next > 0 {
		ctx.RepollAfter(next)
	}
}

// queued reports whether any band queue holds a thread.
func (p *CentralFIFO) queued() bool {
	for _, q := range p.queues {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

// findLowerBandVictim returns the lowest CPU running a placed thread of
// a band below band, hw.NoCPU if none.
func (p *CentralFIFO) findLowerBandVictim(band int) hw.CPUID {
	for occ := p.running.occ; !occ.Empty(); {
		cpu := occ.First()
		if ts := p.running.at(cpu); p.bandOf(ts.Thread) > band && ts.Thread.State() == kernel.StateRunning {
			return cpu
		}
		occ.Clear(cpu)
	}
	return hw.NoCPU
}

// OnTxnFail implements agentsdk.GlobalPolicy: failed commits re-enter the
// queue at the back (Fig 3/4 semantics).
func (p *CentralFIFO) OnTxnFail(ctx *agentsdk.Context, a agentsdk.Assignment, s ghostcore.TxnStatus) {
	ts := p.tr.Get(a.Thread.TID())
	if ts == nil {
		return
	}
	p.running.clear(a.CPU)
	if p.tr.MarkFailed(ts) {
		p.queues[p.bandOf(ts.Thread)].push(ts)
		p.repoll(ctx)
	}
}

// Tunables implements tunable.Policy: the knobs the auto-tuner may
// search (cmd/ghost-tune). Defaults mirror the zero-value policy.
func (p *CentralFIFO) Tunables() *tunable.Set {
	if p.tun == nil {
		p.tun = tunable.NewSet().
			Add(tunable.Tunable{
				Name: "quantum_us", Doc: "round-robin quantum in µs (run-to-block at 0; searched 5–500)",
				Min: 5, Max: 500, Default: 0, Log: true,
				Apply: func(v float64) { p.Quantum = sim.Duration(v * float64(sim.Microsecond)) },
			}).
			Add(tunable.Tunable{
				Name: "preempt_lower", Doc: "queued high-band work preempts running lower bands (0/1)",
				Min: 0, Max: 1, Default: 0, Integer: true,
				Apply: func(v float64) { p.PreemptLower = v >= 0.5 },
			})
	}
	return p.tun
}
