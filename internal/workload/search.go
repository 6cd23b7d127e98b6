package workload

import (
	"fmt"

	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Search models the §4.4 Google Search serving benchmark with its three
// query types:
//
//   - Type A: CPU- and memory-intensive, serviced by workers woken per
//     query whose data is bound to one NUMA socket (cpumask set at spawn,
//     carried to the agent via THREAD_CREATED, per the paper).
//   - Type B: little compute but an SSD access, serviced by short-lived
//     workers woken as needed.
//   - Type C: CPU-intensive, serviced by long-living workers.
//
// Query latency is preprocessing + subquery service including scheduling
// delay; Totals records each query type's completions and latency over
// the whole run.
type Search struct {
	eng  *sim.Engine
	rand *sim.Rand

	poolA   [2]*WorkerPool // per-socket pools
	poolB   *WorkerPool
	poolC   *WorkerPool
	servers []*kernel.Mailbox[*Request]

	// Totals aggregate the whole run.
	Totals [3]*LatencyRecorder
}

// Query types.
const (
	QueryA = iota
	QueryB
	QueryC
)

// SearchConfig sizes the benchmark.
type SearchConfig struct {
	// Rates are arrivals/second per query type.
	RateA, RateB, RateC float64
	// Workers per pool.
	WorkersA, WorkersB, WorkersC int
	Servers                      int
	Seed                         uint64
}

// DefaultSearchConfig is sized for the 256-CPU Rome machine at the
// realistic serving utilization (~65% of effective capacity) where
// placement quality shows up in the tails.
func DefaultSearchConfig() SearchConfig {
	return SearchConfig{
		RateA: 450000, RateB: 120000, RateC: 90000,
		WorkersA: 200, WorkersB: 64, WorkersC: 110,
		Servers: 16, Seed: 42,
	}
}

// Service profiles per type. A is memory-bound (large migration
// penalties make placement matter); B sleeps on "SSD"; C is pure CPU.
const (
	preprocess = 2 * sim.Microsecond

	serviceA = 250 * sim.Microsecond
	serviceB = 25 * sim.Microsecond
	ssdWait  = 180 * sim.Microsecond
	serviceC = 400 * sim.Microsecond
)

// NewSearch builds the benchmark. spawnWorker creates worker threads in
// the scheduler under test (CFS or a ghOSt enclave) with the given
// affinity; spawnServer creates the CFS server threads that fan queries
// out.
func NewSearch(k *kernel.Kernel, cfg SearchConfig,
	spawnWorker func(name string, affinity kernel.Mask, body kernel.ThreadFunc) *kernel.Thread,
	spawnServer func(name string, body kernel.ThreadFunc) *kernel.Thread) *Search {
	s := &Search{eng: k.Engine(), rand: sim.NewRand(cfg.Seed)}
	for i := range s.Totals {
		s.Totals[i] = &LatencyRecorder{}
	}
	topo := k.Topology()

	// Type A: per-socket pools, workers pinned to their data's socket.
	// A is memory-bound: being re-dispatched onto a different CCX than
	// the worker last ran on costs a cold-cache factor — the effect the
	// §4.4 CCX-aware placement optimization targets.
	prevCCX := make(map[kernel.TID]int)
	serveA := func(t *kernel.Thread, r *Request, stage int) (kernel.Action, bool) {
		if stage > 0 {
			return kernel.Action{}, false
		}
		svc := r.Service
		if cpu := t.OnCPU(); cpu >= 0 {
			ccx := topo.CPU(cpu).CCX
			if last, ok := prevCCX[t.TID()]; ok && last != ccx {
				svc = svc * 135 / 100 // cold L3
			}
			prevCCX[t.TID()] = ccx
		}
		return kernel.RunAction(svc), true
	}
	for sock := 0; sock < 2 && sock < topo.NumSockets(); sock++ {
		mask := kernel.MaskOf(topo.CPUsOfSocket(sock)...)
		s.poolA[sock] = newPool(k, cfg.WorkersA/2, "w%d-A", s.Totals[QueryA], serveA,
			func(name string, body kernel.ThreadFunc) *kernel.Thread {
				return spawnWorker(name, mask, body)
			})
	}
	anyCPU := func(name string, body kernel.ThreadFunc) *kernel.Thread {
		return spawnWorker(name, kernel.Mask{}, body)
	}
	// Type B: SSD-bound short workers, any CPU.
	s.poolB = newPool(k, cfg.WorkersB, "w%d-B", s.Totals[QueryB],
		func(t *kernel.Thread, r *Request, stage int) (kernel.Action, bool) {
			switch stage {
			case 0, 2:
				return kernel.RunAction(r.Service / 2), true
			case 1:
				return t.SleepAction(ssdWait), true
			}
			return kernel.Action{}, false
		}, anyCPU)
	// Type C: long-living CPU-bound workers, any CPU.
	s.poolC = newPool(k, cfg.WorkersC, "w%d-C", s.Totals[QueryC], runService, anyCPU)

	// Server threads: receive queries, preprocess, dispatch.
	for i := 0; i < cfg.Servers; i++ {
		sv := &searchServer{s: s, mb: kernel.NewMailbox[*Request](k)}
		s.servers = append(s.servers, sv.mb)
		spawnServer(fmt.Sprintf("search-server-%d", i), kernel.Steps(sv.step))
	}

	// Arrival processes.
	s.startArrivals(QueryA, cfg.RateA, Fixed(serviceA))
	s.startArrivals(QueryB, cfg.RateB, Fixed(serviceB))
	s.startArrivals(QueryC, cfg.RateC, Exponential(serviceC))
	return s
}

// startArrivals starts one query type's Poisson arrival process. Its
// queries go to the servers round-robin by ID.
func (s *Search) startArrivals(qt int, rate float64, svc ServiceDist) {
	NewPoissonSource(s.eng, s.rand.Fork(), rate, svc, func(q *Request) {
		q.Class = qt
		s.servers[q.ID%uint64(len(s.servers))].Put(q)
	})
}

// dispatch routes a preprocessed query to its worker pool.
func (s *Search) dispatch(q *Request) {
	switch q.Class {
	case QueryA:
		// Data locality: the query's data lives on one socket.
		sock := int(q.ID) % 2
		if s.poolA[1] == nil {
			sock = 0
		}
		s.poolA[sock].Submit(q)
	case QueryB:
		s.poolB.Submit(q)
	default:
		s.poolC.Submit(q)
	}
}

// searchServer is a server thread as a kernel.Steps machine: take the
// next query from the mailbox, run its preprocessing, dispatch it to its
// pool, and take the next.
type searchServer struct {
	s  *Search
	mb *kernel.Mailbox[*Request]
	q  *Request // the query being preprocessed
}

func (sv *searchServer) step(t *kernel.Thread) (kernel.Action, bool) {
	if sv.q != nil {
		sv.s.dispatch(sv.q)
	}
	q, wait, ok := sv.mb.TryGetOrWait(t)
	if !ok {
		sv.q = nil
		return wait, true
	}
	sv.q = q
	return kernel.RunAction(preprocess), true
}
