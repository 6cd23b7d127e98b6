// Quickstart: delegate scheduling of a handful of threads to a userspace
// FIFO policy via the ghOSt public API, then crash the agents and watch
// the threads fall back to CFS (§3.4) — all on a simulated machine.
package main

import (
	"errors"
	"fmt"

	"ghost"
)

func main() {
	// A 48-CPU machine (2-socket Xeon E5, the §4.2 box).
	m := ghost.NewMachine(ghost.XeonE5())
	defer m.Shutdown()

	// Partition CPUs 0-7 into an enclave and hand them to a centralized
	// FIFO policy running in a userspace global agent.
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 2, 3, 4, 5, 6, 7))
	agents := m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())

	// Spawn ghOSt-managed threads: each serves 5 "requests".
	for i := 0; i < 16; i++ {
		i := i
		m.Spawn(ghost.ThreadOpts{Name: fmt.Sprintf("worker-%d", i), Class: ghost.Ghost(enc)},
			func(tc *ghost.Task) {
				for r := 0; r < 60; r++ {
					tc.Run(20 * ghost.Microsecond) // do work
					tc.Sleep(50 * ghost.Microsecond)
				}
			})
	}

	m.Run(2 * ghost.Millisecond)
	delivery := m.Metrics().Enclaves[enc.ID()].MsgDelivery
	fmt.Printf("after 2ms: %d transactions committed, %d messages delivered (p50 %v)\n",
		agents.TxnsCommitted, delivery.Count(), delivery.P50())

	// Non-disruptive policy upgrade (§3.4): stop generation 1, start
	// generation 2 on the live enclave. Threads keep running.
	agents.Stop()
	gen2 := m.StartAgents(enc, ghost.NewShinjukuPolicy(), ghost.Global())
	m.Run(2 * ghost.Millisecond)
	fmt.Printf("after upgrade: generation 2 committed %d transactions (enclave destroyed: %v)\n",
		gen2.TxnsCommitted, enc.Destroyed())

	// Crash the agents with no successor: the watchdogless fallback
	// moves every thread back to CFS and destroys the enclave.
	gen2.Crash()
	m.Run(ghost.Millisecond)
	fmt.Printf("after crash: enclave destroyed=%v, crash=%v — threads now run under CFS\n",
		enc.Destroyed(), errors.Is(enc.DestroyCause(), ghost.ErrAgentCrash))

	// The machine aggregates scheduling metrics the whole time (build
	// with ghost.WithTrace to also record a Perfetto timeline).
	fmt.Print(m.Metrics())
}
