// Package baselines implements the systems the paper compares ghOSt
// against: the Shinjuku dedicated data plane (§4.2) and in-kernel secure
// core scheduling (§4.5). (CFS and MicroQuanta live in internal/kernel.)
package baselines

import (
	"fmt"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

// ShinjukuDataplane models the original Shinjuku system (NSDI '19, §4.2
// of the ghOSt paper): a spinning dispatcher on a dedicated physical
// core plus spinning worker threads pinned to hyperthreads. Workers
// process requests in slice-bounded chunks; preempted requests return to
// the back of the dispatcher's FIFO. The spinning threads permanently
// occupy their CPUs (Fig 6c: a co-located batch app gets no cycles),
// modelled by running them in the machine's top-priority dedicated
// class.
type ShinjukuDataplane struct {
	k   *kernel.Kernel
	rec *workload.LatencyRecorder

	fifo       []*workload.Request
	workers    []*spinWorker
	dispatcher *kernel.Thread
}

const (
	// slice is the preemption timeslice (30 µs in the paper).
	slice = 30 * sim.Microsecond
	// preemptCost is the per-preemption overhead (Shinjuku's
	// virtualization-assisted posted interrupt plus requeue, ~1-2 µs).
	preemptCost sim.Duration = 1500
	// dispatchCost is charged per request handoff from the FIFO.
	dispatchCost sim.Duration = 300
)

// spinWorker is one dedicated spinning worker.
type spinWorker struct {
	dp     *ShinjukuDataplane
	thread *kernel.Thread
	cur    *workload.Request
	charge kernel.Charge
	// idle is true only while the worker is genuinely spin-waiting on
	// the FIFO (not mid-chunk); Submit uses it to pick a poke target.
	idle bool
}

// NewShinjukuDataplane builds the data plane: the dispatcher on
// dispatcherCPU and one spinning worker per workerCPUs entry, all in
// dedicated (top-priority) class dc.
func NewShinjukuDataplane(k *kernel.Kernel, dc *kernel.AgentClass,
	dispatcherCPU hw.CPUID, workerCPUs []hw.CPUID, rec *workload.LatencyRecorder) *ShinjukuDataplane {
	dp := &ShinjukuDataplane{k: k, rec: rec}
	// Dispatcher: pure spinner occupying its core (its work is folded
	// into dispatchCost on the worker side).
	var spin kernel.Charge
	dp.dispatcher = k.Spawn(kernel.SpawnOpts{
		Name: "shinjuku-dispatcher", Class: dc, Affinity: kernel.MaskOf(dispatcherCPU),
	}, kernel.Steps(func(t *kernel.Thread) (kernel.Action, bool) {
		if a, ok := spin.Next(t); ok {
			return a, true
		}
		return kernel.SpinAction(), true
	}))
	k.Wake(dp.dispatcher)
	for _, cpu := range workerCPUs {
		w := &spinWorker{dp: dp}
		w.thread = k.Spawn(kernel.SpawnOpts{
			Name: fmt.Sprintf("shinjuku-worker-%d", cpu), Class: dc, Affinity: kernel.MaskOf(cpu),
		}, kernel.Steps(w.step))
		dp.workers = append(dp.workers, w)
		k.Wake(w.thread)
	}
	return dp
}

// Submit enqueues a request (the load generator sink).
func (dp *ShinjukuDataplane) Submit(r *workload.Request) {
	dp.fifo = append(dp.fifo, r)
	dp.kickIdle(nil)
}

// kickIdle pokes one spinning worker that has no current request.
func (dp *ShinjukuDataplane) kickIdle(except *spinWorker) {
	if len(dp.fifo) == 0 {
		return
	}
	for _, w := range dp.workers {
		if w != except && w.idle {
			dp.k.Poke(w.thread)
			return
		}
	}
}

// step is a worker's Steps machine: run the current request for up to a
// slice; preempt long requests back to the FIFO. Each step's cost is
// charged before the worker steps again.
func (w *spinWorker) step(t *kernel.Thread) (kernel.Action, bool) {
	if a, ok := w.charge.Next(t); ok {
		return a, true
	}
	dp := w.dp
	w.idle = false
	if w.cur == nil {
		if len(dp.fifo) == 0 {
			w.idle = true
			return kernel.SpinAction(), true // spin-wait on the request queue
		}
		w.cur = dp.fifo[0]
		dp.fifo = dp.fifo[1:]
		dp.kickIdle(w) // more queued work: wake another idle worker
		return w.charge.Then(dispatchCost, kernel.StepOnCPUAction()), true
	}
	r := w.cur
	chunk := r.Remaining
	if chunk > slice {
		chunk = slice
	}
	r.Remaining -= chunk
	if r.Remaining > 0 {
		// Preemption: requeue at the back of the FIFO (§4.2).
		w.cur = nil
		dp.fifo = append(dp.fifo, r)
		return w.charge.Then(chunk+preemptCost, kernel.StepOnCPUAction()), true
	}
	w.cur = nil
	done := r
	// Completion is recorded when the chunk's cost has elapsed; capture
	// via a timestamped event.
	dp.k.Engine().After(chunk, func() {
		dp.rec.Record(done, dp.k.Now())
		if done.Done != nil {
			done.Done(done, dp.k.Now())
		}
	})
	return w.charge.Then(chunk, kernel.StepOnCPUAction()), true
}
