package experiments

import (
	"fmt"

	"ghost/internal/agentsdk"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "fig5",
		Title: "Global agent scalability (Fig 5)",
		Run:   runFig5,
	})
}

// runFig5 reproduces Fig 5: a round-robin global agent schedules yield-
// looping threads onto an increasing number of CPUs; the committed-
// transactions-per-second curve shows the ramp (more CPUs consume more
// transactions), the dip when workers reach the agent's SMT sibling, and
// the droop when scheduling crosses the NUMA interconnect.
//
// CPUs are added in the paper's order: socket-0 physical cores first,
// then socket-0 hyperthread siblings (the agent's own sibling last in
// that group), then socket 1.
func runFig5(o Options) *Report {
	rep := &Report{
		ID: "fig5", Title: "Global agent scalability",
		Header: []string{"machine", "CPUs", "Mtxns/s"},
	}
	machines := []struct {
		name string
		topo func() *hw.Topology
	}{
		{"skylake", hw.SkylakeDefault},
		{"haswell", hw.Haswell},
	}
	// Flatten the (machine, CPU count) sweep into independent jobs, then
	// render in submission order so the report matches serial output.
	type point struct {
		machine string
		topo    func() *hw.Topology
		order   []hw.CPUID
		n       int
	}
	var pts []point
	for _, mc := range machines {
		order := fig5CPUOrder(mc.topo())
		for _, n := range fig5Sweep(len(order), o.Quick) {
			pts = append(pts, point{mc.name, mc.topo, order, n})
		}
		if o.Quick && mc.name == "haswell" {
			break
		}
	}
	rates := sweep(o, len(pts), func(i int) float64 {
		p := pts[i]
		return fig5Point(p.topo(), p.order[:p.n], o)
	})
	for i, p := range pts {
		rep.AddRow(p.machine, itoa(p.n), fmt.Sprintf("%.3f", rates[i]/1e6))
	}
	rep.Notef("expected shape: ramp while CPUs are added, dip when the agent's SMT " +
		"sibling gets workers, degradation on the remote socket (paper Fig 5)")
	return rep
}

// fig5CPUOrder lists schedulable CPUs: socket-0 cores (sans agent cpu),
// agent's sibling placed at the end of the socket-0 sibling group, then
// socket 1.
func fig5CPUOrder(topo *hw.Topology) []hw.CPUID {
	agent := hw.CPUID(0)
	agentSib := topo.CPU(agent).Sibling()
	var s0cores, s0sibs, s1 []hw.CPUID
	ncores := topo.NumCores()
	for i := 0; i < topo.NumCPUs(); i++ {
		id := hw.CPUID(i)
		if id == agent || id == agentSib {
			continue
		}
		info := topo.CPU(id)
		switch {
		case info.Socket == 0 && int(id) < ncores:
			s0cores = append(s0cores, id)
		case info.Socket == 0:
			s0sibs = append(s0sibs, id)
		default:
			s1 = append(s1, id)
		}
	}
	out := append(s0cores, s0sibs...)
	if agentSib != hw.NoCPU {
		out = append(out, agentSib) // co-location point: the Fig 5 dip
	}
	return append(out, s1...)
}

// fig5Sweep picks the CPU counts to sample.
func fig5Sweep(max int, quick bool) []int {
	stride := 4
	if quick {
		stride = 16
	}
	var out []int
	for n := 1; n <= max; n += stride {
		out = append(out, n)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// fig5Point measures committed txns/s for one CPU count.
func fig5Point(topo *hw.Topology, cpus []hw.CPUID, o Options) float64 {
	m, set := fig5Machine(topo, cpus)
	defer m.k.Shutdown()
	warm := 5 * sim.Millisecond
	window := 50 * sim.Millisecond
	if o.Quick {
		window = 20 * sim.Millisecond
	}
	m.m.Run(warm)
	base := set.TxnsCommitted
	m.m.Run(window)
	return float64(set.TxnsCommitted-base) / window.Seconds()
}

// fig5Machine builds one fig5 point: a global agent on CPU 0 and two
// yield-loopers per CPU in cpus. Each completed transaction is ~work + a
// yield, so every CPU consumes transactions at ~1/work per second until
// the agent saturates.
func fig5Machine(topo *hw.Topology, cpus []hw.CPUID) (*machine, *agentsdk.AgentSet) {
	m := newMachine(machineOpts{topo: topo})
	enc := m.enclaveOn(append([]hw.CPUID{0}, cpus...)...)
	set := m.startCentral(enc, policies.NewCentralFIFO())
	const work = 15 * sim.Microsecond
	for i := 0; i < 2*len(cpus); i++ {
		enc.SpawnThread(kernel.SpawnOpts{Name: "looper"}, fig5Looper(work))
	}
	return m, set
}

// fig5Looper is the fig5 workload body: one transaction is work worth of
// CPU followed by a yield.
func fig5Looper(work sim.Duration) kernel.ThreadFunc {
	return kernel.Steps(func(t *kernel.Thread) (kernel.Action, bool) {
		if t.Ran() {
			return kernel.YieldAction(), true
		}
		return kernel.RunAction(work), true
	})
}
