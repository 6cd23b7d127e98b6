package workload

import (
	"fmt"

	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// WorkerPool models the §4.2 serving structure: a pool of native worker
// threads, each serving one request at a time (block → run service →
// complete → block). The load generator hands an arriving request to a
// free worker, or queues it if all workers are busy. Latency is measured
// arrival-to-completion, so both queueing and scheduling delay count.
type WorkerPool struct {
	k        *kernel.Kernel
	rec      *LatencyRecorder
	serve    serveFunc
	workers  []*poolWorker
	free     []*poolWorker
	backlog  []*Request
	stopping bool

	// snapKey is the pool's snapshot component key (BindSnapshotKey).
	snapKey string
	// DoneRebinder, when set, is applied to every pending request on
	// snapshot restore: Done callbacks cannot ride in a byte stream, so
	// the assembler that sets Request.Done must re-attach it here.
	DoneRebinder func(*Request)
}

// serveFunc is how a pool serves one request: the action for stage i of
// serving r on thread t, or false once r is served. Each stage starts
// when the previous one completes.
type serveFunc func(t *kernel.Thread, r *Request, stage int) (kernel.Action, bool)

// runService serves a request by running its service time.
func runService(_ *kernel.Thread, r *Request, stage int) (kernel.Action, bool) {
	if stage > 0 {
		return kernel.Action{}, false
	}
	return kernel.RunAction(r.Service), true
}

// NewWorkerPool spawns n worker threads with the given spawner (so the
// caller chooses the scheduling class: CFS, or an enclave). spawn must
// create a thread running the provided body.
func NewWorkerPool(k *kernel.Kernel, n int, rec *LatencyRecorder,
	spawn func(name string, body kernel.ThreadFunc) *kernel.Thread) *WorkerPool {
	return newPool(k, n, "worker-%d", rec, runService, spawn)
}

// newPool builds a pool whose workers serve requests with serve and
// record each completion in rec.
func newPool(k *kernel.Kernel, n int, nameFmt string, rec *LatencyRecorder, serve serveFunc,
	spawn func(name string, body kernel.ThreadFunc) *kernel.Thread) *WorkerPool {
	p := &WorkerPool{k: k, rec: rec, serve: serve}
	for i := 0; i < n; i++ {
		spawn(fmt.Sprintf(nameFmt, i), p.workerBody())
	}
	p.free = append(p.free, p.workers...)
	return p
}

// workerBody returns the body of a new worker. The worker joins the pool
// when its thread spawns, so workers are listed in spawn (TID) order;
// restore builds worker bodies here too, for the pool shell.
func (p *WorkerPool) workerBody() kernel.ThreadFunc {
	w := &poolWorker{p: p, stage: workerIdle}
	steps := kernel.Steps(w.step)
	return func(tc *kernel.TaskContext) {
		w.t = tc.Thread()
		p.workers = append(p.workers, w)
		steps(tc)
	}
}

// poolWorker is one worker thread as a kernel.Steps machine: block until
// it is handed a request, serve it stage by stage, complete it, and
// block again. stage is the next serve stage of the request in service,
// or workerIdle.
type poolWorker struct {
	p *WorkerPool
	t *kernel.Thread
	// r is the request in service, held from hand-off (Submit, or the
	// backlog pick-up in finishRequest) until it completes, so a
	// snapshot taken mid-Run still knows which request this worker is
	// serving.
	r     *Request
	stage int
}

// workerIdle is the stage of a worker that serves no request: just
// spawned, or woken from Block.
const workerIdle = -1

func (w *poolWorker) step(t *kernel.Thread) (kernel.Action, bool) {
	p := w.p
	if w.stage == workerIdle {
		if p.stopping {
			return kernel.Action{}, false
		}
		if w.r == nil {
			return kernel.BlockAction(), true
		}
		w.stage = 0
	}
	if a, more := p.serve(t, w.r, w.stage); more {
		w.stage++
		return a, true
	}
	w.stage = workerIdle
	p.finishRequest(w)
	return kernel.BlockAction(), true
}

// finishRequest completes the worker's request after it was served:
// record latency, invoke Done, pick up backlog work before returning to
// the free list.
func (p *WorkerPool) finishRequest(w *poolWorker) {
	r := w.r
	w.r = nil
	done := p.k.Now()
	p.rec.Record(r, done)
	if r.Done != nil {
		r.Done(r, done)
	}
	if len(p.backlog) > 0 {
		next := p.backlog[0]
		p.backlog = p.backlog[1:]
		w.r = next
		// The worker's next Block consumes the self-wake immediately.
		p.k.Wake(w.t)
		return
	}
	p.free = append(p.free, w)
}

// Submit hands a request to the pool (the PoissonSource sink).
func (p *WorkerPool) Submit(r *Request) {
	if len(p.free) == 0 {
		p.backlog = append(p.backlog, r)
		return
	}
	w := p.free[0]
	p.free = p.free[1:]
	w.r = r
	p.k.Wake(w.t)
}

// Stop makes workers exit at their next wakeup.
func (p *WorkerPool) Stop() {
	p.stopping = true
	for _, w := range p.workers {
		p.k.Wake(w.t)
	}
}

// Spinner is a batch antagonist: a CPU-bound thread that runs forever in
// small chunks (so preemption statistics stay fine-grained). Its CPU
// share is read via Thread.CPUTime (Fig 6c, §4.3 loaded mode).
func Spinner(chunk sim.Duration) kernel.ThreadFunc {
	return kernel.Steps(func(*kernel.Thread) (kernel.Action, bool) {
		return kernel.RunAction(chunk), true
	})
}

// FiniteSpinner runs total CPU work in chunks, then exits; used by the
// bwaves VM workload (§4.5) where completion time is the metric.
func FiniteSpinner(total, chunk sim.Duration, onDone func(at sim.Time)) kernel.ThreadFunc {
	return func(tc *kernel.TaskContext) {
		for done := sim.Duration(0); done < total; done += chunk {
			c := chunk
			if total-done < c {
				c = total - done
			}
			tc.Run(c)
		}
		if onDone != nil {
			onDone(tc.Now())
		}
	}
}
