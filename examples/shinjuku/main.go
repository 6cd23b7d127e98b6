// Shinjuku-on-ghOSt (§4.2): serve the paper's dispersive RocksDB
// workload (99.5% × 10 µs, 0.5% × 10 ms) with the preemptive centralized
// Shinjuku policy, and contrast the tail with a non-preemptive FIFO.
package main

import (
	"flag"
	"fmt"

	"ghost"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

// quick shortens the simulation for CI smoke runs.
var quick = flag.Bool("quick", false, "run 150ms instead of 1s (CI smoke)")

func run(preemptive bool, rate float64) *workload.LatencyRecorder {
	m := ghost.NewMachine(ghost.XeonE5())
	defer m.Shutdown()

	// Agent on CPU 0; 20 worker CPUs, as in the paper.
	var mask ghost.CPUMask
	for i := 0; i <= 20; i++ {
		mask.Set(ghost.CPUID(i))
	}
	enc := m.NewEnclave(mask)
	if preemptive {
		m.StartAgents(enc, ghost.NewShinjukuPolicy(), ghost.Global()) // 30 µs slices
	} else {
		m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global()) // run to completion
	}

	dur, warm := ghost.Second, 100*sim.Millisecond
	if *quick {
		dur, warm = 150*ghost.Millisecond, 20*sim.Millisecond
	}
	rec := &workload.LatencyRecorder{WarmupUntil: warm}
	pool := workload.NewWorkerPool(m.Kernel(), 200, rec, func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name, Class: ghost.Ghost(enc)}, body)
	})
	workload.NewPoissonSource(m.Kernel().Engine(), sim.NewRand(7), rate,
		workload.RocksDBService(), pool.Submit)

	m.Run(dur)
	return rec
}

func main() {
	flag.Parse()
	const rate = 280000
	fmt.Printf("RocksDB bimodal workload at %d req/s on 20 CPUs:\n\n", int(rate))
	pre := run(true, rate)
	fifo := run(false, rate)
	fmt.Printf("%-22s %12s %12s %12s\n", "policy", "p50", "p99", "p99.9")
	fmt.Printf("%-22s %12v %12v %12v\n", "shinjuku (30us slice)",
		pre.Hist.P50(), pre.Hist.P99(), pre.Hist.P999())
	fmt.Printf("%-22s %12v %12v %12v\n", "fifo (no preemption)",
		fifo.Hist.P50(), fifo.Hist.P99(), fifo.Hist.P999())
	fmt.Println("\nPreemption keeps short requests from waiting behind 10ms monsters —")
	fmt.Println("the Shinjuku result, in ~300 lines of userspace policy (§4.2).")
}
