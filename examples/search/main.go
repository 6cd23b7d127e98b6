// Search-on-ghOSt (§4.4): run the three-query-type Search workload on
// the 256-CPU AMD Rome machine under CFS and under the NUMA/CCX-aware
// least-runtime ghOSt policy, and print per-type p99 latency.
package main

import (
	"flag"
	"fmt"

	"ghost"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

// quick shortens the simulation for CI smoke runs; the printed ratios
// are then noisy but the program exercises the full pipeline.
var quick = flag.Bool("quick", false, "run 100ms instead of 2s (CI smoke)")

func run(useGhost bool) [3]sim.Duration {
	m := ghost.NewMachine(ghost.AMDRome())
	defer m.Shutdown()

	cfg := workload.DefaultSearchConfig()
	dur := 2 * ghost.Second
	if *quick {
		dur = 100 * ghost.Millisecond
	}

	spawnServer := func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name}, body)
	}
	var s *workload.Search
	if useGhost {
		enc := m.NewEnclave(m.AllCPUs())
		m.StartAgents(enc, ghost.NewSearchPolicy(), ghost.Global())
		s = workload.NewSearch(m.Kernel(), cfg,
			func(name string, aff ghost.CPUMask, body ghost.ThreadFunc) *ghost.Thread {
				return m.Spawn(ghost.ThreadOpts{Name: name, Affinity: aff, Class: ghost.Ghost(enc)}, body)
			}, spawnServer)
	} else {
		s = workload.NewSearch(m.Kernel(), cfg,
			func(name string, aff ghost.CPUMask, body ghost.ThreadFunc) *ghost.Thread {
				return m.Spawn(ghost.ThreadOpts{Name: name, Affinity: aff}, body)
			}, spawnServer)
	}
	m.Run(dur)
	var out [3]sim.Duration
	for qt := 0; qt < 3; qt++ {
		out[qt] = s.Totals[qt].Hist.P99()
	}
	return out
}

func main() {
	flag.Parse()
	fmt.Println("Google Search model on 256-CPU AMD Rome (2s simulated, ~1min wall each)...")
	cfs := run(false)
	gho := run(true)
	fmt.Printf("\n%-8s %14s %14s %10s\n", "query", "CFS p99", "ghOSt p99", "ratio")
	for qt := 0; qt < 3; qt++ {
		fmt.Printf("%-8c %14v %14v %9.2fx\n", 'A'+qt, cfs[qt], gho[qt],
			float64(gho[qt])/float64(cfs[qt]))
	}
	fmt.Println("\nThe global agent reacts to capacity changes in µs; CFS waits for its")
	fmt.Println("ms-scale load balancer — the §4.4 tail-latency result.")
}
