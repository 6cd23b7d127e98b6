package policies

import (
	"slices"
	"sort"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// CoreSched is the §4.5 secure VM core-scheduling policy: both logical
// CPUs of a physical core only ever run vCPUs of the same VM (or one
// runs idle), defeating cross-hyperthread L1TF/MDS attacks. Scheduling
// whole cores is natural in ghOSt's centralized model: the agent issues a
// synchronized group commit for each core — the transactions for the two
// siblings either all succeed or all fail.
//
// Fairness and latency bounds come from a quantum rotation: a core runs
// one VM for up to Quantum, then rotates to the next VM with runnable
// vCPUs (the partitioned-EDF scheme of the paper approximated by
// round-robin with guaranteed service every NumVMs×Quantum).
type CoreSched struct {
	// Quantum bounds how long one VM monopolises a core while others
	// wait.
	Quantum sim.Duration
	// VMOf classifies threads into VMs; must return >= 0 for vCPUs.
	VMOf func(t *kernel.Thread) int

	tr        *Tracker
	vms       []vmQueue     // every VM that has queued a vCPU, by ascending id
	cores     [][2]hw.CPUID // physical cores fully inside the enclave
	coreVM    map[int]int   // core index -> VM it is serving (-1 free)
	coreSince map[int]sim.Time
	rr        int
}

// NewCoreSched builds the policy with a 1 ms rotation quantum.
func NewCoreSched(vmOf func(t *kernel.Thread) int) *CoreSched {
	return &CoreSched{Quantum: sim.Millisecond, VMOf: vmOf}
}

// Attach implements agentsdk.GlobalPolicy.
func (p *CoreSched) Attach(ctx *agentsdk.Context) {
	p.coreVM = make(map[int]int)
	p.coreSince = make(map[int]sim.Time)
	topo := ctx.Topology()
	enc := ctx.Enclave.CPUs()
	seen := map[int]bool{}
	enc.ForEach(func(cpu hw.CPUID) bool {
		info := topo.CPU(cpu)
		if seen[info.Core] {
			return true
		}
		seen[info.Core] = true
		sib := info.Sibling()
		if sib != hw.NoCPU && enc.Has(sib) {
			a, b := cpu, sib
			if b < a {
				a, b = b, a
			}
			p.cores = append(p.cores, [2]hw.CPUID{a, b})
		}
		return true
	})
	// Reserve the first core for the global agent: the agent occupies
	// one sibling permanently, so that core cannot be isolation-managed.
	if len(p.cores) > 0 {
		agentCPU := ctx.GlobalCPU()
		kept := p.cores[:0]
		for _, c := range p.cores {
			if c[0] != agentCPU && c[1] != agentCPU {
				kept = append(kept, c)
			}
		}
		p.cores = kept
	}
	for i := range p.cores {
		p.coreVM[i] = -1
	}
	p.tr = NewTracker()
	p.tr.OnRunnable = func(ts *TState, m ghostcore.Message) { p.queueFor(ts).push(ts) }
	p.tr.OnRemoved = func(ts *TState, m ghostcore.Message) {
		if q := p.queue(p.vmOf(ts)); q != nil {
			q.remove(ts)
		}
	}
	p.tr.Rebuild(ctx)
}

func (p *CoreSched) vmOf(ts *TState) int {
	v := p.VMOf(ts.Thread)
	if v < 0 {
		v = 0
	}
	return v
}

// vmQueue is one VM's runnable vCPUs.
type vmQueue struct {
	vm int
	q  runq
}

// queue returns VM v's run queue, nil if v has never queued a vCPU.
func (p *CoreSched) queue(v int) *runq {
	for i := range p.vms {
		if p.vms[i].vm == v {
			return &p.vms[i].q
		}
	}
	return nil
}

// queueFor returns the run queue of ts's VM, adding the VM to the
// rotation when it queues its first vCPU.
func (p *CoreSched) queueFor(ts *TState) *runq {
	v := p.vmOf(ts)
	if q := p.queue(v); q != nil {
		return q
	}
	i := sort.Search(len(p.vms), func(i int) bool { return p.vms[i].vm > v })
	p.vms = slices.Insert(p.vms, i, vmQueue{vm: v})
	return &p.vms[i].q
}

// OnMessage implements agentsdk.GlobalPolicy.
func (p *CoreSched) OnMessage(ctx *agentsdk.Context, m ghostcore.Message) {
	p.tr.HandleMessage(ctx, m)
}

// nextVM returns the next VM after the rotation pointer with runnable
// vCPUs, excluding `not`; -1 if none.
func (p *CoreSched) nextVM(not int) int {
	n := len(p.vms)
	for i := 0; i < n; i++ {
		vq := &p.vms[(p.rr+i)%n]
		if vq.vm != not && len(vq.q) > 0 {
			p.rr = (p.rr + i + 1) % n
			return vq.vm
		}
	}
	return -1
}

// vmRunnable reports whether any VM other than `not` has queued vCPUs.
func (p *CoreSched) vmRunnable(not int) bool {
	for i := range p.vms {
		if vq := &p.vms[i]; vq.vm != not && len(vq.q) > 0 {
			return true
		}
	}
	return false
}

// Schedule implements agentsdk.GlobalPolicy.
func (p *CoreSched) Schedule(ctx *agentsdk.Context) []agentsdk.Assignment {
	now := ctx.Now()
	k := ctx.Kernel
	var out []agentsdk.Assignment

	// Pass 1 places at most one vCPU per idle core (breadth-first: an
	// idle sibling is allowed by the policy and avoids SMT contention);
	// pass 2 packs leftovers onto siblings of same-VM cores. Track
	// placements locally since commits apply after Schedule returns.
	type coreState struct {
		vm    int
		slots int // occupied CPUs after our assignments
	}
	local := make(map[int]*coreState)

	// occ reports the thread occupying a CPU: running, or latched by an
	// in-flight transaction (which must not be displaced blindly).
	occ := func(cpu hw.CPUID) *kernel.Thread {
		if cur := k.CPU(cpu).Curr(); cur != nil {
			return cur
		}
		return ctx.Enclave.LatchedFor(cpu)
	}

	for ci, core := range p.cores {
		// What is the core doing right now?
		var runningVM = -1
		busy := 0
		for _, cpu := range core {
			if cur := occ(cpu); cur != nil {
				if v := p.VMOf(cur); v >= 0 {
					runningVM = v
					busy++
				} else {
					// A non-VM thread (CFS daemon, agent) holds this
					// CPU; leave the core alone this round.
					busy = -1000
				}
			}
		}
		if busy < 0 {
			continue
		}
		group := ci + 1 // non-zero atomic group per core

		switch {
		case runningVM == -1:
			// Idle core: give it to the next VM in rotation, one vCPU
			// for now (pass 2 may pack a second).
			if v := p.nextVM(-1); v >= 0 {
				if ts := p.queue(v).popFor(core[0]); ts != nil {
					p.tr.MarkScheduled(ts, int(core[0]), now)
					out = append(out, agentsdk.Assignment{Thread: ts.Thread, CPU: core[0], Group: group})
					p.coreVM[ci] = v
					p.coreSince[ci] = now
					local[ci] = &coreState{vm: v, slots: 1}
				}
			}
		default:
			local[ci] = &coreState{vm: runningVM, slots: busy}
			elapsed := now - p.coreSince[ci]
			if elapsed >= p.Quantum && p.vmRunnable(runningVM) {
				// Rotate the whole core to the next VM: replace every
				// occupant (the group commit preempts them) and force
				// any leftover sibling idle so VMs never mix.
				if v := p.nextVM(runningVM); v >= 0 {
					filled := 0
					for _, cpu := range core {
						if ts := p.queue(v).popFor(cpu); ts != nil {
							p.tr.MarkScheduled(ts, int(cpu), now)
							out = append(out, agentsdk.Assignment{Thread: ts.Thread, CPU: cpu, Group: group})
							filled++
						} else if occ(cpu) != nil {
							ctx.PreemptCPU(cpu)
						}
					}
					if filled > 0 {
						p.coreVM[ci] = v
						p.coreSince[ci] = now
						local[ci] = &coreState{vm: v, slots: filled}
					}
				}
			}
		}
	}

	// Pass 2: pack remaining runnable vCPUs onto idle siblings of cores
	// already serving their VM.
	for ci, core := range p.cores {
		st := local[ci]
		if st == nil || st.slots >= 2 {
			continue
		}
		// A VM that never queued a vCPU here (it ran before an upgrade)
		// has no run queue and nothing to pack.
		q := p.queue(st.vm)
		if q == nil {
			continue
		}
		for _, cpu := range core {
			if st.slots >= 2 {
				break
			}
			if occ(cpu) != nil {
				continue
			}
			already := false
			for _, a := range out {
				if a.CPU == cpu {
					already = true
					break
				}
			}
			if already {
				continue
			}
			if ts := q.popFor(cpu); ts != nil {
				p.tr.MarkScheduled(ts, int(cpu), now)
				out = append(out, agentsdk.Assignment{Thread: ts.Thread, CPU: cpu, Group: ci + 1})
				st.slots++
			}
		}
	}
	p.repoll(ctx)
	return out
}

// repoll arms the agent's timer a quarter quantum ahead while some VM has
// queued vCPUs, since every decision Schedule makes places one
// (DESIGN.md §3k).
func (p *CoreSched) repoll(ctx *agentsdk.Context) {
	if p.vmRunnable(-1) {
		ctx.RepollAfter(p.Quantum / 4)
	}
}

// OnTxnFail implements agentsdk.GlobalPolicy.
func (p *CoreSched) OnTxnFail(ctx *agentsdk.Context, a agentsdk.Assignment, s ghostcore.TxnStatus) {
	ts := p.tr.Get(a.Thread.TID())
	if ts == nil {
		return
	}
	if p.tr.MarkFailed(ts) {
		p.queueFor(ts).push(ts)
		p.repoll(ctx)
	}
}
