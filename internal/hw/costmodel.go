package hw

import (
	"fmt"
	"reflect"

	"ghost/internal/sim"
)

// CostModel holds the nanosecond costs of scheduling-relevant operations.
// The default values are taken from Table 3 of the ghOSt paper (measured
// on the Skylake 8173M machine) so the simulator's absolute latencies are
// anchored to real measurements. All fields are simulated durations.
// Table 3's message-delivery lines (1-2) are not inputs: the table3
// experiment measures them through the queues, wakeups and switches.
type CostModel struct {
	// Syscall is the bare syscall entry/exit overhead (Table 3 line 10).
	Syscall sim.Duration
	// ContextSwitchMinimal is a minimal pthread-level context switch
	// (Table 3 line 11). Used for agent wakeups.
	ContextSwitchMinimal sim.Duration
	// ContextSwitchCFS is a CFS thread context switch including runqueue
	// bookkeeping (Table 3 line 12).
	ContextSwitchCFS sim.Duration
	// LocalSchedule is a ghOSt local transaction commit plus context
	// switch until the target thread runs (Table 3 line 3).
	LocalSchedule sim.Duration

	// RemoteTxnAgentBase and RemoteTxnAgentPer model the agent-side cost
	// of committing a group of n remote transactions as base + n*per.
	// Fitted to Table 3: 1 txn = 668 ns, 10 txns = 3964 ns.
	RemoteTxnAgentBase sim.Duration
	RemoteTxnAgentPer  sim.Duration
	// RemoteTxnTargetBase and RemoteTxnTargetPer model the target-CPU
	// overhead (IPI handling + context switch): 1 txn = 1064 ns; in a
	// 10-wide group each target pays ~1821 ns due to bus contention.
	RemoteTxnTargetBase sim.Duration
	RemoteTxnTargetPer  sim.Duration
	// CrossSocketIPI is the extra one-way latency of an IPI that crosses
	// the socket interconnect.
	CrossSocketIPI sim.Duration

	// TickPeriod is the kernel timer tick period.
	TickPeriod sim.Duration
	// TickOverhead is work injected into the running thread on every
	// timer tick (e.g. the VM-exit cost for guest vCPUs, §5). Zero by
	// default; the tickless ablation sets it.
	TickOverhead sim.Duration

	// SMTPenalty is the slowdown factor applied to a logical CPU whose
	// SMT sibling is simultaneously busy (>= 1.0, typical 1.3-1.5).
	SMTPenalty float64

	// Migration cache-warmup penalties, charged once when a thread
	// resumes on a CPU at the given distance from where it last ran.
	MigrateSMT    sim.Duration
	MigrateCCX    sim.Duration
	MigrateSocket sim.Duration
	MigrateRemote sim.Duration

	// AgentLoopOverhead is the fixed cost of one agent scheduling-loop
	// iteration beyond message and transaction handling (policy
	// bookkeeping, runqueue manipulation).
	AgentLoopOverhead sim.Duration
	// MsgEnqueue is the kernel-side cost of producing one message.
	MsgEnqueue sim.Duration
	// MsgDequeue is the agent-side cost of consuming one message.
	MsgDequeue sim.Duration
}

// Validate reports whether every field of c is non-negative: a negative
// cost would run a thread's work or an event backwards.
func (c CostModel) Validate() error {
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if (f.CanInt() && f.Int() < 0) || (f.CanFloat() && f.Float() < 0) {
			return fmt.Errorf("hw: cost model field %s is negative (%v)", v.Type().Field(i).Name, f)
		}
	}
	return nil
}

// DefaultCostModel returns the Table 3-anchored cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		Syscall:              72,
		ContextSwitchMinimal: 410,
		ContextSwitchCFS:     599,
		LocalSchedule:        888,

		RemoteTxnAgentBase:  302, // 668 = base + 1*per
		RemoteTxnAgentPer:   366, // 3964 = base + 10*per
		RemoteTxnTargetBase: 980, // 1064 = base + 1*per
		RemoteTxnTargetPer:  84,  // 1821 = base + 10*per
		CrossSocketIPI:      450,

		TickPeriod: sim.Millisecond,

		SMTPenalty: 1.4,

		MigrateSMT:    200,
		MigrateCCX:    900,
		MigrateSocket: 2500,
		MigrateRemote: 6000,

		AgentLoopOverhead: 150,
		MsgEnqueue:        110,
		MsgDequeue:        95,
	}
}

// RemoteCommitAgentCost returns the agent-side cost of a group commit of
// n remote transactions.
func (c *CostModel) RemoteCommitAgentCost(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return c.RemoteTxnAgentBase + sim.Duration(n)*c.RemoteTxnAgentPer
}

// RemoteCommitTargetCost returns the per-target-CPU cost of receiving a
// transaction that was part of a group of n, optionally crossing sockets.
func (c *CostModel) RemoteCommitTargetCost(n int, crossSocket bool) sim.Duration {
	if n <= 0 {
		return 0
	}
	d := c.RemoteTxnTargetBase + sim.Duration(n)*c.RemoteTxnTargetPer
	if crossSocket {
		d += c.CrossSocketIPI
	}
	return d
}

// MigrationPenalty returns the one-time cache-warmup penalty of resuming
// a thread at topological distance dist from where it last ran.
func (c *CostModel) MigrationPenalty(dist Distance) sim.Duration {
	switch dist {
	case DistSelf:
		return 0
	case DistSMT:
		return c.MigrateSMT
	case DistCCX:
		return c.MigrateCCX
	case DistSocket:
		return c.MigrateSocket
	default:
		return c.MigrateRemote
	}
}
