// Package agentsdk is the userspace half of ghOSt: the support library
// that agents are written against (the paper's "ghOSt Userspace Support
// Library"). It runs scheduling policies inside agent threads, pumps
// kernel messages to them, commits their decisions as transactions, and
// implements the centralized model's hot handoff and the per-CPU model's
// local commit loop.
package agentsdk

import (
	"fmt"
	"sort"

	"ghost/internal/faults"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Assignment is one scheduling decision of a centralized policy: run
// Thread on CPU.
type Assignment struct {
	Thread *kernel.Thread
	CPU    hw.CPUID
	// Group, when non-zero, marks assignments that must commit
	// atomically with every other assignment sharing the same Group id
	// (the §4.5 synchronized per-core group commit).
	Group int
}

// GlobalPolicy is the interface of a centralized (single global agent)
// scheduling policy (§3.3, Fig 4).
type GlobalPolicy interface {
	// Attach is called once when the policy takes over an enclave; it
	// rebuilds any state from ctx.Enclave (used for in-place upgrades).
	Attach(ctx *Context)
	// OnMessage processes one kernel message.
	OnMessage(ctx *Context, m ghostcore.Message)
	// Schedule maps runnable threads to CPUs. Called after messages are
	// drained and whenever capacity changes.
	//
	// The agent reads the returned slice, and calls OnTxnFail for its
	// failed members, before it calls Schedule again; it never retains
	// the slice. A policy may therefore return the same backing array
	// every step (resliced to zero length first), as the built-in
	// policies do, so a scheduling step allocates nothing.
	Schedule(ctx *Context) []Assignment
	// OnTxnFail is invoked for each assignment whose transaction did not
	// commit, so the policy can re-enqueue the thread.
	OnTxnFail(ctx *Context, a Assignment, status ghostcore.TxnStatus)
}

// PerCPUPolicy is the interface of a per-CPU scheduling policy (§3.2,
// Fig 3): each CPU's agent picks the next thread for its own CPU.
type PerCPUPolicy interface {
	// Attach is called once when the policy takes over the enclave.
	Attach(ctx *Context)
	// AssignCPU places a newly created thread on a CPU (its message
	// queue is associated with that CPU's agent).
	AssignCPU(ctx *Context, t *kernel.Thread) hw.CPUID
	// OnMessage processes one message routed to cpu's queue.
	OnMessage(ctx *Context, cpu hw.CPUID, m ghostcore.Message)
	// PickNext chooses the thread to run on cpu, nil to idle.
	PickNext(ctx *Context, cpu hw.CPUID) *kernel.Thread
	// OnTxnFail reports a failed local commit.
	OnTxnFail(ctx *Context, cpu hw.CPUID, t *kernel.Thread, status ghostcore.TxnStatus)
}

// Context gives policies access to enclave state and agent facilities.
type Context struct {
	set     *AgentSet
	Enclave *ghostcore.Enclave
	Kernel  *kernel.Kernel

	// idleScratch backs IdleCPUs between calls; policies call it every
	// scheduling step, so reusing it keeps the step alloc-free.
	idleScratch []hw.CPUID
}

// Now returns the current simulated time.
func (c *Context) Now() sim.Time { return c.Kernel.Now() }

// Topology returns the machine topology.
func (c *Context) Topology() *hw.Topology { return c.Kernel.Topology() }

// IdleCPUs returns the enclave's idle CPUs (GetIdleCPUs() in Fig 4).
// CPUs with a committed-but-not-yet-installed transaction are excluded:
// re-assigning them would displace the in-flight commit.
//
// The returned slice is a scratch buffer valid until the next IdleCPUs
// call on this Context; callers may filter it in place but must not
// retain it across scheduling steps.
func (c *Context) IdleCPUs() []hw.CPUID {
	c.idleScratch = c.IdleMask().AppendCPUs(c.idleScratch[:0])
	return c.idleScratch
}

// IdleMask is IdleCPUs as a mask: the enclave's idle CPUs (from the
// kernel's idle mask) minus those with a commit in flight, which are the
// ones the enclave holds (Enclave.Held).
func (c *Context) IdleMask() kernel.Mask {
	return c.Enclave.CPUs().And(c.Kernel.IdleMask()).AndNot(c.Enclave.Held())
}

// GlobalCPU returns the CPU the active global agent runs on, hw.NoCPU in
// per-CPU mode.
func (c *Context) GlobalCPU() hw.CPUID { return c.set.globalCPU }

// RepollAfter asks for the agent to run again within d even without new
// messages; preemptive policies (e.g. Shinjuku's 30 µs timeslice) use
// this as their virtual timer. An agent set keeps at most one repoll
// pending: a call due no earlier than the pending one arms nothing, and
// an earlier call moves it. A policy arms a repoll only while an expiry
// could change its decision (DESIGN.md §3k). The callback is bound once
// per agent set so each repoll schedules allocation-free.
func (c *Context) RepollAfter(d sim.Duration) {
	set := c.set
	at := c.Kernel.Now() + d
	if set.repoll.Pending() {
		if set.repollAt <= at {
			return
		}
		set.repoll.Cancel()
	}
	set.repoll = c.Kernel.Engine().AfterCall(d, repollFn, set)
	set.repollAt = at
}

// repollFn dispatches the pending repoll to its agent set.
func repollFn(a any) { a.(*AgentSet).pokeActive() }

// RetryAfter pokes the agent after d, one poke per call and never
// coalesced with the repoll. Search retries the threads it skipped this
// way. It joins RepollAfter once the fig8-ablation locality claim is
// re-based across seeds (ROADMAP.md, "Paper claims that hold across
// seeds"): coalescing it moves the Search reports, and the seed-1
// ablation verdict they back is not robust to such a move.
func (c *Context) RetryAfter(d sim.Duration) {
	c.Kernel.Engine().AfterCall(d, pokeActiveFn, c.set)
}

// pokeActiveFn dispatches a RetryAfter poke to its agent set.
func pokeActiveFn(a any) { a.(*AgentSet).pokeActive() }

// Thread resolves a TID to the kernel thread, nil if gone.
func (c *Context) Thread(tid kernel.TID) *kernel.Thread { return c.Kernel.Thread(tid) }

// MoveThread re-routes a thread's messages to cpu's agent queue (per-CPU
// model work-stealing, §3.1). It retries the drain-and-reassociate
// protocol once and reports success.
func (c *Context) MoveThread(t *kernel.Thread, cpu hw.CPUID) bool {
	set := c.set
	r := set.runner(cpu)
	if r == nil {
		return false
	}
	if err := c.Enclave.AssociateQueue(t, r.queue); err != nil {
		return false
	}
	set.threadCPU[t.TID()] = cpu
	set.nudge(r)
	return true
}

// nudge wakes a blocked agent or pokes a running one.
func (set *AgentSet) nudge(r *runner) {
	if r.thread.State() == kernel.StateBlocked {
		set.k.Wake(r.thread)
	} else {
		set.k.Poke(r.thread)
	}
}

// AgentSet is one generation of agents attached to an enclave: one agent
// thread per enclave CPU, of which (in centralized mode) one is the
// active global agent and the rest are inactive handoff targets.
type AgentSet struct {
	k   *kernel.Kernel
	enc *ghostcore.Enclave
	ac  *kernel.AgentClass
	ctx *Context

	global GlobalPolicy
	percpu PerCPUPolicy
	// runners is indexed by CPU id; CPUs outside the enclave hold nil.
	runners []*runner

	globalCPU   hw.CPUID // active global agent home, NoCPU in per-CPU mode
	globalQueue *ghostcore.Queue
	threadCPU   map[kernel.TID]hw.CPUID // per-CPU mode thread placement

	// startOpts replays this generation's Start options onto the
	// successor when a forced-upgrade fault fires.
	startOpts []Option
	// repoll is the pending RepollAfter timer, due at repollAt while
	// it is pending.
	repoll   sim.Event
	repollAt sim.Time

	stopped bool

	// Stats of this generation; the enclave-wide counts and the
	// delivery latency are the tracer's (trace.EnclaveMetrics).
	Handoffs      uint64
	StepsExecuted uint64
	TxnsCommitted uint64
	TxnsFailed    uint64
}

// runner is one agent thread, run as a kernel Steps machine (step).
type runner struct {
	set    *AgentSet
	cpu    hw.CPUID
	thread *kernel.Thread
	agent  *ghostcore.Agent
	queue  *ghostcore.Queue // per-CPU queue (per-CPU mode only)

	// charge holds what the agent does once its current step's cost has
	// been charged (snapshotted as RunnerRec.Pending).
	charge kernel.Charge

	// Injected-fault state: until stallUntil the agent burns CPU making
	// no decisions; until slowUntil its step costs multiply by
	// slowFactor.
	stallUntil sim.Time
	slowUntil  sim.Time
	slowFactor float64

	// Commit buffers reused across global steps, the simulated
	// counterpart of the kernel's preallocated transaction slots
	// (§3.2): txns holds one step's transactions by value and kept the
	// assignments they came from; plain and plainAsg are the ungrouped
	// subset handed to TXNS_COMMIT.
	txns     []ghostcore.Txn
	kept     []Assignment
	plain    []*ghostcore.Txn
	plainAsg []Assignment
	// localTxn is the per-CPU step's one transaction, committed through
	// localTxns, a one-element slice pointing at it.
	localTxn  ghostcore.Txn
	localTxns []*ghostcore.Txn
}

// RunnerBody is the body kind of agent runner threads: the restore spawn
// pass skips them, as they re-spawn with their agent set.
const RunnerBody = "agentsdk.runner"

var runnerBody = &kernel.BodyDesc{Kind: RunnerBody}

// Option configures Start.
type Option func(*startConfig)

type startConfig struct {
	mode    int // asserted model: 0 = none, 1 = Global(), 2 = PerCPU()
	upgrade func() any
}

// Global asserts the centralized (single global agent) model: Start
// panics unless the policy is a GlobalPolicy. The model is inferred
// from the policy's type either way.
func Global() Option { return func(c *startConfig) { c.mode = 1 } }

// PerCPU asserts the per-CPU model: Start panics unless the policy is a
// PerCPUPolicy. The model is inferred from the policy's type either way.
func PerCPU() Option { return func(c *startConfig) { c.mode = 2 } }

// WithUpgradePolicy supplies the successor-policy factory used when a
// forced-upgrade fault fires: the running generation stops and a new one
// starts in place with factory's policy. Without it, upgrade faults are
// skipped (traced as "upgrade-skipped").
func WithUpgradePolicy(factory func() any) Option {
	return func(c *startConfig) { c.upgrade = factory }
}

// Start launches an agent set for enc running policy, inferring the
// scheduling model from the policy's type: a GlobalPolicy gets the
// centralized model (§3.3) and a PerCPUPolicy the per-CPU model (§3.2).
// No type can be both: their OnMessage signatures differ.
func Start(k *kernel.Kernel, enc *ghostcore.Enclave, ac *kernel.AgentClass, policy any, opts ...Option) *AgentSet {
	var cfg startConfig
	for _, o := range opts {
		o(&cfg)
	}
	gp, isGlobal := policy.(GlobalPolicy)
	pp, isPerCPU := policy.(PerCPUPolicy)
	switch {
	case cfg.mode == 1 && !isGlobal:
		panic(fmt.Sprintf("agentsdk: Global() requires a GlobalPolicy, got %T", policy))
	case cfg.mode == 2 && !isPerCPU:
		panic(fmt.Sprintf("agentsdk: PerCPU() requires a PerCPUPolicy, got %T", policy))
	case !isGlobal && !isPerCPU:
		panic(fmt.Sprintf("agentsdk: %T implements neither GlobalPolicy nor PerCPUPolicy", policy))
	}
	var set *AgentSet
	if isGlobal {
		set = startCentralized(k, enc, ac, gp)
	} else {
		set = startPerCPU(k, enc, ac, pp)
	}
	set.startOpts = opts
	if in := k.Faults(); in != nil {
		set.registerFaultHooks(in, cfg.upgrade)
	}
	return set
}

// registerFaultHooks wires this generation to the fault injector. The
// registration replaces the previous generation's, so fault delivery
// follows upgrade handoffs.
func (set *AgentSet) registerFaultHooks(in *faults.Injector, upgrade func() any) {
	encID := set.enc.ID()
	in.RegisterAgentHooks(encID, &faults.AgentHooks{
		Crash: func(now sim.Time) {
			if !set.stopped {
				set.Crash()
			}
		},
		Upgrade: func(now sim.Time) {
			if set.stopped || set.enc.Destroyed() {
				return
			}
			if upgrade == nil {
				set.enc.SkipUpgrade("no upgrade policy")
				return
			}
			set.Stop()
			Start(set.k, set.enc, set.ac, upgrade(), set.startOpts...)
		},
		Stall: func(now sim.Time, d sim.Duration) {
			set.eachTargetRunner(func(r *runner) {
				if now+d > r.stallUntil {
					r.stallUntil = now + d
				}
				// Nudge so a blocked agent wakes into the stall: a hung
				// agent occupies its CPU instead of sleeping politely.
				set.nudge(r)
			})
		},
		Slow: func(now sim.Time, until sim.Time, factor float64) {
			set.eachTargetRunner(func(r *runner) {
				r.slowUntil = until
				r.slowFactor = factor
			})
		},
	})
}

// runner returns cpu's agent runner, nil when cpu has none (outside the
// enclave or out of range).
func (set *AgentSet) runner(cpu hw.CPUID) *runner {
	if cpu < 0 || int(cpu) >= len(set.runners) {
		return nil
	}
	return set.runners[cpu]
}

// eachRunner applies fn to every runner in ascending CPU order.
func (set *AgentSet) eachRunner(fn func(*runner)) {
	for _, r := range set.runners {
		if r != nil {
			fn(r)
		}
	}
}

// eachTargetRunner applies fn to the runner(s) a stall/slow fault
// reaches: the active global agent (centralized) or every agent
// (per-CPU).
func (set *AgentSet) eachTargetRunner(fn func(*runner)) {
	if set.globalCPU != hw.NoCPU {
		fn(set.runners[set.globalCPU])
		return
	}
	set.eachRunner(fn)
}

// startCentralized launches the centralized model: a global agent on
// the first enclave CPU polling a single global queue, plus inactive
// agents on every other CPU for hot handoff (§3.3).
func startCentralized(k *kernel.Kernel, enc *ghostcore.Enclave, ac *kernel.AgentClass, policy GlobalPolicy) *AgentSet {
	set := newSet(k, enc, ac)
	set.global = policy
	// The default queue is the single global queue (Fig 2 right): every
	// managed thread posts there and the spinning global agent drains it.
	set.globalQueue = enc.DefaultQueue()
	first := enc.CPUs().First()
	set.globalCPU = first
	enc.ConfigQueueWakeup(set.globalQueue, set.runners[first].agent, true)
	policy.Attach(set.ctx)
	// Wake the global agent to start spinning.
	k.Wake(set.runners[first].thread)
	// Poke the agent whenever enclave CPUs go idle or feel CFS pressure.
	enc.SetAgentHooks(set.pokeActive, set.onPressure)
	return set
}

// startPerCPU launches the per-CPU model: one agent and one message
// queue per enclave CPU (§3.2, Fig 2 left).
func startPerCPU(k *kernel.Kernel, enc *ghostcore.Enclave, ac *kernel.AgentClass, policy PerCPUPolicy) *AgentSet {
	set := newSet(k, enc, ac)
	set.percpu = policy
	set.globalCPU = hw.NoCPU
	set.eachRunner(func(r *runner) {
		r.localTxns = []*ghostcore.Txn{&r.localTxn}
		r.queue = enc.CreateQueue("cpu-queue")
		enc.ConfigQueueWakeup(r.queue, r.agent, true)
	})
	// New-thread routing: the default queue wakes the first CPU's agent,
	// which assigns threads to CPUs.
	first := enc.CPUs().First()
	enc.ConfigQueueWakeup(enc.DefaultQueue(), set.runners[first].agent, true)
	policy.Attach(set.ctx)
	return set
}

func newSet(k *kernel.Kernel, enc *ghostcore.Enclave, ac *kernel.AgentClass) *AgentSet {
	set := &AgentSet{
		k: k, enc: enc, ac: ac,
		runners:   make([]*runner, k.Topology().NumCPUs()),
		threadCPU: make(map[kernel.TID]hw.CPUID),
	}
	set.ctx = &Context{set: set, Enclave: enc, Kernel: k}
	enc.CPUs().ForEach(func(cpu hw.CPUID) bool {
		r := &runner{set: set, cpu: cpu}
		r.thread = k.Spawn(kernel.SpawnOpts{
			Name:     "ghost-agent",
			Class:    ac,
			Affinity: kernel.MaskOf(cpu),
		}, kernel.Steps(r.step))
		r.thread.SetBodyDesc(runnerBody)
		r.agent = enc.AttachAgent(cpu, r.thread)
		set.runners[cpu] = r
		return true
	})
	return set
}

// Stop detaches and kills this agent generation, announcing an upgrade so
// the enclave survives (§3.4). A successor can then StartCentralized /
// StartPerCPU on the same enclave.
func (set *AgentSet) Stop() {
	set.halt()
	set.enc.BeginUpgrade()
	set.eachRunner(func(r *runner) {
		set.enc.DetachAgent(r.agent)
		set.k.Kill(r.thread)
	})
}

// halt marks the generation stopped and cancels its repoll. A running
// centralized generation also takes its idle and pressure callbacks off
// the enclave.
func (set *AgentSet) halt() {
	if !set.stopped && set.global != nil {
		set.enc.SetAgentHooks(nil, nil)
	}
	set.stopped = true
	set.repoll.Cancel()
}

// Crash kills the agents without announcing an upgrade: the enclave falls
// back to the default scheduler, as for a real agent crash (§3.4).
func (set *AgentSet) Crash() {
	set.halt()
	set.eachRunner(func(r *runner) {
		set.k.Kill(r.thread)
		set.enc.DetachAgent(r.agent)
	})
}

// Kick nudges the agents to re-run their scheduling loop promptly even
// when no kernel messages are flowing. External controllers that queue
// decisions for the policy to execute (rather than reacting inside
// OnMessage/Schedule) must Kick after queueing: a quiescent system — all
// managed threads waiting for dispatch, no wakeups in flight — delivers
// no messages, so a spin-idling agent would otherwise never look at the
// queued decisions. In per-CPU mode every runner is nudged.
func (set *AgentSet) Kick() {
	if set.stopped {
		return
	}
	if set.globalCPU != hw.NoCPU {
		set.pokeActive()
		return
	}
	set.eachRunner(func(r *runner) { set.k.Poke(r.thread) })
}

// pokeActive nudges the active global agent.
func (set *AgentSet) pokeActive() {
	if set.stopped || set.globalCPU == hw.NoCPU {
		return
	}
	if r := set.runner(set.globalCPU); r != nil {
		set.k.Poke(r.thread)
	}
}

// onPressure implements the hot handoff (§3.3): when a CFS thread needs
// the global agent's CPU, move the global role to the inactive agent on
// the lowest-numbered idle enclave CPU and release this one.
func (set *AgentSet) onPressure(c *kernel.CPU) {
	if set.stopped || set.globalCPU == hw.NoCPU || c.ID != set.globalCPU {
		return
	}
	idle := set.enc.CPUs().And(set.k.IdleMask())
	idle.Clear(set.globalCPU)
	target := idle.First()
	if target == hw.NoCPU {
		return // nowhere to go; CFS must wait (machine saturated)
	}
	old := set.runners[set.globalCPU]
	set.globalCPU = target
	set.Handoffs++
	next := set.runners[target]
	set.enc.ConfigQueueWakeup(set.globalQueue, next.agent, true)
	set.k.Wake(next.thread)
	// The old agent notices it is inactive at its next step and blocks;
	// poke it so that happens now.
	set.k.Poke(old.thread)
}

// step is the runner's Steps machine. A call with an action pending in
// the charge returns it; otherwise the agent, now on its CPU, takes a
// scheduling step: the mode-specific loop, after any injected stall or
// slow fault, charged before the action that follows it.
func (r *runner) step(t *kernel.Thread) (kernel.Action, bool) {
	if a, ok := r.charge.Next(t); ok {
		return a, true
	}
	set := r.set
	if set.stopped || set.enc.Destroyed() {
		return kernel.Action{}, false
	}
	now := set.k.Now()
	if now < r.stallUntil {
		// Injected stall (§3.4 robustness: a GC-paused or buggy agent):
		// burn the CPU making no decisions until the stall ends.
		return r.charge.Then(r.stallUntil-now, kernel.SpinAction()), true
	}
	set.StepsExecuted++
	var cost sim.Duration
	var after kernel.Action
	if set.globalCPU != hw.NoCPU {
		if r.cpu != set.globalCPU {
			// Inactive agent: vacate the CPU immediately (§3.3).
			return r.charge.Then(0, kernel.BlockAction()), true
		}
		cost, after = r.globalStep()
	} else {
		cost, after = r.localStep()
	}
	if now < r.slowUntil && r.slowFactor > 1 && cost > 0 {
		cost = sim.Duration(float64(cost) * r.slowFactor)
	}
	return r.charge.Then(cost, after), true
}

// drain consumes a queue, charging per-message cost.
func (r *runner) drain(q *ghostcore.Queue) ([]ghostcore.Message, sim.Duration) {
	msgs := q.Drain(r.cpu)
	return msgs, sim.Duration(len(msgs)) * r.set.k.Cost().MsgDequeue
}

// globalStep is the centralized scheduling loop (Fig 4). It returns the
// step's cost and the action that follows it, as localStep does.
func (r *runner) globalStep() (sim.Duration, kernel.Action) {
	set := r.set
	cm := set.k.Cost()
	cost := cm.AgentLoopOverhead
	committed := 0

	msgs, c1 := r.drain(set.globalQueue)
	cost += c1
	for _, m := range msgs {
		set.global.OnMessage(set.ctx, m)
	}

	asgs := set.global.Schedule(set.ctx)
	// One value Txn per live assignment. Pointers into txns are taken
	// only once it has stopped growing.
	txns, kept := r.txns[:0], r.kept[:0]
	grouped := false
	for _, a := range asgs {
		if a.Thread == nil || a.CPU == set.globalCPU {
			continue
		}
		txns = append(txns, ghostcore.Txn{TID: a.Thread.TID(), CPU: a.CPU, ThreadSeq: set.enc.ThreadSeq(a.Thread)})
		kept = append(kept, a)
		grouped = grouped || a.Group != 0
	}
	r.txns, r.kept = txns, kept
	if n := len(txns); n > 0 {
		committed = n
		cost += cm.Syscall + cm.RemoteCommitAgentCost(n)
		plain, plainAsg := r.plain[:0], r.plainAsg[:0]
		// Only CoreSched forms atomic groups; without them the
		// group maps and the sorted commit order are skipped.
		var groups map[int][]*ghostcore.Txn
		var groupAsg map[int][]Assignment
		if grouped {
			groups = make(map[int][]*ghostcore.Txn)
			groupAsg = make(map[int][]Assignment)
		}
		for i, a := range kept {
			if a.Group != 0 {
				groups[a.Group] = append(groups[a.Group], &txns[i])
				groupAsg[a.Group] = append(groupAsg[a.Group], a)
			} else {
				plain = append(plain, &txns[i])
				plainAsg = append(plainAsg, a)
			}
		}
		r.plain, r.plainAsg = plain, plainAsg
		if len(plain) > 0 {
			set.enc.TxnsCommit(r.agent, plain)
			set.reportTxns(plain, plainAsg)
		}
		if grouped {
			gids := make([]int, 0, len(groups))
			for gid := range groups {
				gids = append(gids, gid)
			}
			sort.Ints(gids) // deterministic commit order
			for _, gid := range gids {
				set.enc.TxnsCommitAtomic(r.agent, groups[gid])
				set.reportTxns(groups[gid], groupAsg[gid])
			}
		}
	}
	set.enc.ReportAgentStep(r.cpu, cost, len(msgs), committed, "global")
	return cost, kernel.SpinAction()
}

// forgetDead drops a dead thread's placement once its THREAD_DEAD has
// been routed: no message follows it, and TIDs are never reused.
func (set *AgentSet) forgetDead(m ghostcore.Message) {
	if m.Type == ghostcore.MsgThreadDead {
		delete(set.threadCPU, m.TID)
	}
}

// reportTxns tallies commit outcomes and routes failures to the policy.
func (set *AgentSet) reportTxns(txns []*ghostcore.Txn, asgs []Assignment) {
	for i, txn := range txns {
		if txn.Status == ghostcore.TxnCommitted {
			set.TxnsCommitted++
		} else {
			set.TxnsFailed++
			set.global.OnTxnFail(set.ctx, asgs[i], txn.Status)
		}
	}
}

// PreemptCPU exposes the enclave preemption op to policies.
func (c *Context) PreemptCPU(cpu hw.CPUID) { c.Enclave.PreemptCPU(cpu) }

// localStep is the per-CPU scheduling loop (Fig 3).
func (r *runner) localStep() (sim.Duration, kernel.Action) {
	set := r.set
	cm := set.k.Cost()
	cost := cm.AgentLoopOverhead
	aseq := r.agent.Seq()
	drained := 0
	// span reports the wake→decision→commit span of this step.
	span := func(txns int) { set.enc.ReportAgentStep(r.cpu, cost, drained, txns, "local") }

	// The first CPU's agent also drains the default queue, assigning
	// new threads to CPUs.
	if r.cpu == set.enc.CPUs().First() {
		dmsgs, dc := r.drain(set.enc.DefaultQueue())
		cost += dc
		drained += len(dmsgs)
		for _, m := range dmsgs {
			if m.Type == ghostcore.MsgThreadCreated {
				// A thread that died before this drain is not placed:
				// its THREAD_DEAD follows, and placing it would only
				// advance the policy's placement state.
				if t := set.k.Thread(m.TID); t != nil && t.State() != kernel.StateDead {
					cpu := set.percpu.AssignCPU(set.ctx, t)
					if tr := set.runner(cpu); tr != nil {
						_ = set.enc.AssociateQueue(t, tr.queue)
						set.threadCPU[m.TID] = cpu
						set.percpu.OnMessage(set.ctx, cpu, m)
						if cpu != r.cpu {
							set.nudge(tr)
						}
						continue
					}
				}
			}
			// Route trailing messages (e.g. the wakeup that accompanied
			// creation) to the thread's assigned CPU.
			cpu := r.cpu
			if c, ok := set.threadCPU[m.TID]; ok {
				cpu = c
			}
			set.percpu.OnMessage(set.ctx, cpu, m)
			set.forgetDead(m)
			if cpu != r.cpu {
				set.nudge(set.runners[cpu])
			}
		}
	}

	msgs, mc := r.drain(r.queue)
	cost += mc
	drained += len(msgs)
	for _, m := range msgs {
		set.percpu.OnMessage(set.ctx, r.cpu, m)
		set.forgetDead(m)
	}

	if set.enc.LatchedFor(r.cpu) != nil {
		// A previous commit has not switched in yet (the agent was
		// re-woken before yielding); let it take effect.
		span(0)
		return cost, kernel.BlockAction()
	}

	next := set.percpu.PickNext(set.ctx, r.cpu)
	if next == nil {
		span(0)
		return cost, kernel.BlockAction()
	}
	r.localTxn = ghostcore.Txn{TID: next.TID(), CPU: r.cpu, AgentSeq: aseq}
	// Local commit: validation plus the local dispatch path; together
	// with the context switch this reproduces Table 3 line 3 (888 ns).
	cost += cm.LocalSchedule - cm.ContextSwitchMinimal
	set.enc.TxnsCommit(r.agent, r.localTxns)
	span(1)
	switch status := r.localTxn.Status; status {
	case ghostcore.TxnCommitted:
		set.TxnsCommitted++
		// Yield the CPU to the committed thread.
		return cost, kernel.BlockAction()
	case ghostcore.TxnESTALE:
		set.TxnsFailed++
		// Newer messages arrived: drain and retry (§3.2).
		return cost, kernel.StepOnCPUAction()
	default:
		set.TxnsFailed++
		set.percpu.OnTxnFail(set.ctx, r.cpu, next, status)
		return cost, kernel.StepOnCPUAction()
	}
}
