package kernel

import (
	"ghost/internal/hw"
	"ghost/internal/sim"
)

// AgentClass is the highest-priority scheduling class, reserved for ghOSt
// userspace agents (§3.3: "no other thread in the machine, whether ghOSt
// or non-ghOSt, can preempt agent-threads"). Agents are pinned, one per
// CPU, and queued FIFO per CPU (two agents share a CPU only transiently
// during an in-place agent upgrade).
type AgentClass struct {
	k   *Kernel
	rqs [][]*Thread
}

// NewAgentClass creates and registers the agent class.
func NewAgentClass(k *Kernel) *AgentClass {
	a := &AgentClass{k: k, rqs: make([][]*Thread, k.NumCPUs())}
	k.RegisterClass(a)
	return a
}

// Name implements Class.
func (a *AgentClass) Name() string { return "agent" }

// Priority implements Class.
func (a *AgentClass) Priority() int { return PrioAgent }

// SwitchInCost implements Class: agents use the minimal context-switch
// path (Table 3 line 11).
func (a *AgentClass) SwitchInCost() sim.Duration { return a.k.cost.ContextSwitchMinimal }

// ThreadAttached implements Class.
func (a *AgentClass) ThreadAttached(t *Thread) {}

// ThreadDetached implements Class.
func (a *AgentClass) ThreadDetached(t *Thread, r DequeueReason) {}

// Enqueue implements Class.
func (a *AgentClass) Enqueue(t *Thread, cpu hw.CPUID, r EnqueueReason) {
	a.rqs[cpu] = append(a.rqs[cpu], t)
	t.targetCPU = cpu
}

// Dequeue implements Class.
func (a *AgentClass) Dequeue(t *Thread, r DequeueReason) {
	rq := a.rqs[t.targetCPU]
	for i, q := range rq {
		if q == t {
			a.rqs[t.targetCPU] = append(rq[:i], rq[i+1:]...)
			return
		}
	}
}

// Queued implements Class.
func (a *AgentClass) Queued(c *CPU) bool { return len(a.rqs[c.ID]) > 0 }

// Eligible implements Class.
func (a *AgentClass) Eligible(c *CPU, running *Thread) bool { return true }

// PickNext implements Class.
func (a *AgentClass) PickNext(c *CPU, prev *Thread) *Thread {
	if prev != nil {
		return prev // running agents are never preempted
	}
	rq := a.rqs[c.ID]
	if len(rq) == 0 {
		return nil
	}
	t := rq[0]
	a.rqs[c.ID] = append(rq[:0], rq[1:]...) // keep the capacity: Enqueue stays alloc-free
	return t
}

// SelectCPU implements Class: agents are pinned; run on the sole CPU of
// their affinity mask (or the first if wider).
func (a *AgentClass) SelectCPU(t *Thread) hw.CPUID {
	return t.affinity.First()
}

// WantsPreempt implements Class: agents never preempt each other.
func (a *AgentClass) WantsPreempt(c *CPU, curr, incoming *Thread) bool { return false }

// Tick implements Class.
func (a *AgentClass) Tick(c *CPU, t *Thread) {}
