package experiments

import (
	"ghost"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "table3",
		Title: "ghOSt microbenchmarks (Table 3)",
		Run:   runTable3,
	})
}

// runTable3 reproduces Table 3. Rows 4, 5, 7, 8, 10, 11 are the cost
// model itself (fitted to the paper's measurements, see hw.CostModel);
// the interesting rows are the ones the simulator *produces* from those
// inputs: message delivery through the real queue/wakeup machinery,
// local scheduling through a real per-CPU agent, and remote/group
// scheduling through real transactions with IPI propagation.
func runTable3(o Options) *Report {
	rep := &Report{
		ID: "table3", Title: "Microbenchmarks",
		Header: []string{"#", "operation", "paper(ns)", "measured(ns)", "source"},
	}
	cm := hw.DefaultCostModel()

	// The five measurements build independent machines; run them as jobs.
	res := sweep(o, 5, func(i int) sim.Duration {
		switch i {
		case 0:
			// Row 1: a per-CPU agent, woken by each message.
			return measureDelivery("t3", 2, func(m *machine, enc *ghostcore.Enclave) {
				m.m.StartAgents(enc, policies.NewPerCPUFIFO(), ghost.PerCPU())
			})
		case 1:
			// Row 2: a spinning global agent.
			return measureDelivery("t3g", 4, func(m *machine, enc *ghostcore.Enclave) {
				m.startCentral(enc, policies.NewCentralFIFO())
			})
		case 2:
			return measureRemoteE2E(o, 1)
		case 3:
			return measureRemoteE2E(o, 10)
		default:
			return measureCFSSwitch(o)
		}
	})
	localDelivery, globalDelivery, remote1, remote10, cfsSwitch := res[0], res[1], res[2], res[3], res[4]

	rep.AddRow("1", "message delivery, local agent", "725", ns(localDelivery), "measured (queue+wakeup+switch)")
	rep.AddRow("2", "message delivery, global agent", "265", ns(globalDelivery), "measured (queue, spinning agent)")
	rep.AddRow("3", "local schedule (1 txn)", "888", ns(cm.LocalSchedule), "cost model (commit+switch)")
	rep.AddRow("4", "remote schedule: agent overhead", "668", ns(cm.RemoteCommitAgentCost(1)), "cost model (fit)")
	rep.AddRow("5", "remote schedule: target overhead", "1064", ns(cm.RemoteCommitTargetCost(1, false)), "cost model (fit)")
	rep.AddRow("6", "remote schedule: end-to-end", "1772", ns(remote1), "measured (commit->running)")
	rep.AddRow("7", "group x10: agent overhead", "3964", ns(cm.RemoteCommitAgentCost(10)), "cost model (fit)")
	rep.AddRow("8", "group x10: target overhead", "1821", ns(cm.RemoteCommitTargetCost(10, false)), "cost model (fit)")
	rep.AddRow("9", "group x10: end-to-end", "5688", ns(remote10), "measured (commit->all running)")
	rep.AddRow("10", "syscall overhead", "72", ns(cm.Syscall), "cost model")
	rep.AddRow("11", "pthread minimal context switch", "410", ns(cm.ContextSwitchMinimal), "cost model")
	rep.AddRow("12", "CFS context switch", "599", ns(cfsSwitch), "measured (wake->running)")

	rep.Notef("paper end-to-end rows include agent-side serialization that overlaps " +
		"with IPI propagation; the simulator charges agent time to the agent thread " +
		"concurrently, so measured e2e is IPI + install + context switch")
	rep.Notef("throughput bound from row 7: %.2fM txns/s for a group-committing agent "+
		"(paper: 2.52M)", 10.0/float64(cm.RemoteCommitAgentCost(10))*1000)
	return rep
}

// measureDelivery starts agents with start on an enclave of cores
// CPUs, runs block/wake cycles of one thread there, and returns the
// median message delivery latency.
func measureDelivery(name string, cores int, start func(*machine, *ghostcore.Enclave)) sim.Duration {
	topo := hw.NewTopology(hw.Config{Name: name, Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: cores, SMTWidth: 1})
	m := newMachine(machineOpts{topo: topo, extra: []ghost.MachineOption{ghost.WithTrace(trace.NewMetricsOnly())}})
	defer m.k.Shutdown()
	enc := m.m.NewEnclave(kernel.MaskAll(cores))
	start(m, enc)
	th := enc.SpawnThread(kernel.SpawnOpts{Name: "t"}, func(tc *kernel.TaskContext) {
		for i := 0; i < 400; i++ {
			tc.Run(2 * sim.Microsecond)
			tc.Block()
		}
	})
	sim.NewTicker(m.eng, 50*sim.Microsecond, func(sim.Time) {
		if th.State() == kernel.StateBlocked {
			m.k.Wake(th)
		}
	})
	m.m.Run(25 * sim.Millisecond)
	return m.m.Metrics().Enclaves[enc.ID()].MsgDelivery.P50()
}

// measureRemoteE2E commits a group of n transactions from an event
// context and measures until the last target thread is running.
func measureRemoteE2E(o Options, n int) sim.Duration {
	topo := hw.NewTopology(hw.Config{Name: "t3r", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 16, SMTWidth: 1})
	m := newMachine(machineOpts{topo: topo})
	defer m.k.Shutdown()
	enc := m.enclaveOn(func() []hw.CPUID {
		var c []hw.CPUID
		for i := 0; i < 16; i++ {
			c = append(c, hw.CPUID(i))
		}
		return c
	}()...)
	var lastStart sim.Time
	var ths []*kernel.Thread
	for i := 0; i < n; i++ {
		th := enc.SpawnThread(kernel.SpawnOpts{Name: "t"}, func(tc *kernel.TaskContext) {
			tc.Run(1000)
			if end := tc.Now() - 1000; end > lastStart {
				lastStart = end
			}
		})
		ths = append(ths, th)
	}
	var commitAt sim.Time
	m.eng.After(10*sim.Microsecond, func() {
		commitAt = m.eng.Now()
		var txns []*ghostcore.Txn
		for i, th := range ths {
			txns = append(txns, enc.TxnCreate(th.TID(), hw.CPUID(i+1)))
		}
		enc.TxnsCommit(nil, txns)
	})
	m.m.Run(sim.Millisecond)
	return lastStart - commitAt
}

// measureCFSSwitch measures wake-to-running for a CFS thread on an idle
// CPU — by construction the CFS context-switch cost.
func measureCFSSwitch(o Options) sim.Duration {
	topo := hw.NewTopology(hw.Config{Name: "t3c", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 1, SMTWidth: 1})
	m := newMachine(machineOpts{topo: topo})
	defer m.k.Shutdown()
	var total sim.Duration
	var n int
	m.k.Spawn(kernel.SpawnOpts{Name: "t", Class: m.cfs}, func(tc *kernel.TaskContext) {
		for i := 0; i < 100; i++ {
			tc.Sleep(10 * sim.Microsecond)
			woke := tc.Now()
			tc.Run(sim.Microsecond)
			total += tc.Now() - woke - sim.Microsecond
			n++
		}
	})
	m.m.Run(5 * sim.Millisecond)
	if n == 0 {
		return 0
	}
	return total / sim.Duration(n)
}
