// Tuned: drive an enclave end-to-end through the versioned environment
// API (env.V1) with a hand-rolled controller — no agent SDK, no
// internal/* imports, just step/observe/act. The controller is a
// miniature Shinjuku: dispatch the longest-waiting runnable thread to
// the lowest idle CPU, preempt any CPU whose thread has held it past a
// slice, and adapt the decision quantum to how the window p99 tracks
// the SLO. The printed digest is the SHA-256 of the observation stream;
// it is byte-identical for a given seed.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"

	"ghost"
	"ghost/env"
)

var (
	quick = flag.Bool("quick", false, "run 10ms instead of 100ms (CI smoke)")
	seed  = flag.Uint64("seed", 42, "simulation seed")
)

func main() {
	flag.Parse()

	horizon := 100 * ghost.Millisecond
	if *quick {
		horizon = 10 * ghost.Millisecond
	}
	slo := 300 * ghost.Microsecond
	e, err := env.Open(env.Spec{
		Version:  env.V1,
		Topology: "xeon-e5",
		CPUs:     8,
		Seed:     *seed,
		Quantum:  50 * ghost.Microsecond,
		Horizon:  horizon,
		SLO:      slo,
		Workload: env.WorkloadSpec{
			Rate:    180_000,
			Workers: 32,
			Service: env.ServiceSpec{Dist: "bimodal", Short: 10 * ghost.Microsecond,
				Long: 500 * ghost.Microsecond, PLong: 0.02},
		},
		// All dispatch decisions come from this controller.
		AutoDispatch: false,
	})
	if err != nil {
		panic(err)
	}
	defer e.Close()

	// Shinjuku in miniature: preempt a tenancy once it has run long
	// enough that it is either a long request or a worker that has had a
	// fair burst of short ones (§4.2). Runtime is cumulative per thread,
	// so the slice is per-tenancy, not per-request.
	const slice = 150 * ghost.Microsecond
	quantum := 50 * ghost.Microsecond
	// CPU time each running thread had accumulated when we dispatched it;
	// Runtime minus this is how long the current tenancy has run.
	tenancy := map[int]ghost.Duration{}

	digest := sha256.New()
	var obs env.Observation
	var reward, totalReward float64
	var done bool
	var actions []env.Action
	for !done {
		obs, reward, done = e.Step(actions)
		totalReward += reward
		fmt.Fprintln(digest, obs.String())
		actions = actions[:0]

		// Preempt CPUs whose thread has outrun its slice. Threads are
		// TID-sorted, so the action order (and the stream digest) is
		// deterministic.
		idle := append([]int(nil), obs.IdleCPUs...)
		for _, t := range obs.Threads {
			if t.Running && t.CPU >= 0 && t.Runtime-tenancy[t.TID] > slice {
				actions = append(actions, env.PreemptAction(t.CPU))
				idle = append(idle, t.CPU) // free this quantum
			}
		}
		// Dispatch longest-waiting runnable threads onto idle CPUs.
		for _, cpu := range idle {
			best := -1
			var wait ghost.Duration = -1
			for _, t := range obs.Threads {
				if t.Runnable && !t.Running && t.WaitingFor > wait {
					best, wait = t.TID, t.WaitingFor
				}
			}
			if best < 0 {
				break
			}
			actions = append(actions, env.DispatchAction(best, cpu))
			for i := range obs.Threads {
				if obs.Threads[i].TID == best {
					tenancy[best] = obs.Threads[i].Runtime
					obs.Threads[i].Runnable = false // taken this round
					break
				}
			}
		}
		// Adapt the decision quantum: tighten control when the window p99
		// is blowing the SLO, relax it when comfortably under.
		if obs.Window.Count > 0 {
			switch {
			case obs.Window.P99 > slo && quantum > 20*ghost.Microsecond:
				quantum -= 10 * ghost.Microsecond
				actions = append(actions, env.SetQuantumAction(quantum))
			case obs.Window.P99 < slo/2 && quantum < 100*ghost.Microsecond:
				quantum += 10 * ghost.Microsecond
				actions = append(actions, env.SetQuantumAction(quantum))
			}
		}
	}

	secs := float64(obs.Now) / float64(ghost.Second)
	fmt.Printf("tuned controller over env.V1: %d steps, %d arrivals, %d completions\n",
		obs.Step, obs.Arrivals, obs.Completions)
	fmt.Printf("p50 %v  p99 %v  max %v  throughput %.1f kreq/s  mean reward %+.3f\n",
		obs.Total.P50, obs.Total.P99, obs.Total.Max,
		float64(obs.Completions)/secs/1000, totalReward/float64(obs.Step))
	fmt.Printf("stream digest: %x\n", digest.Sum(nil))
}
