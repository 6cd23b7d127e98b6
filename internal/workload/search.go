package workload

import (
	"fmt"

	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/stats"
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
// delay; per-type QPS and p99 latency are sampled once per second,
// matching Fig 8's time axes.
type Search struct {
	k    *kernel.Kernel
	eng  *sim.Engine
	rand *sim.Rand

	poolA   [2]*WorkerPool // per-socket pools
	poolB   *WorkerPool
	poolC   *WorkerPool
	servers []*kernel.Mailbox[*Request]

	// Per-type live recorders, reset every sampling period.
	recs [3]*LatencyRecorder
	// Series are the Fig 8 outputs: QPS and p99 per type per second.
	QPS [3]*stats.TimeSeries
	P99 [3]*stats.TimeSeries
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
	SamplePeriod                 sim.Duration
	Seed                         uint64
}

// DefaultSearchConfig is sized for the 256-CPU Rome machine at the
// realistic serving utilization (~65% of effective capacity) where
// placement quality shows up in the tails.
func DefaultSearchConfig() SearchConfig {
	return SearchConfig{
		RateA: 450000, RateB: 120000, RateC: 90000,
		WorkersA: 200, WorkersB: 64, WorkersC: 110,
		Servers: 16, SamplePeriod: sim.Second, Seed: 42,
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
	s := &Search{k: k, eng: k.Engine(), rand: sim.NewRand(cfg.Seed)}
	for i := range s.recs {
		s.recs[i] = &LatencyRecorder{}
		s.Totals[i] = &LatencyRecorder{}
		s.QPS[i] = &stats.TimeSeries{Name: fmt.Sprintf("qps-%c", 'A'+i)}
		s.P99[i] = &stats.TimeSeries{Name: fmt.Sprintf("p99-%c", 'A'+i)}
	}
	topo := k.Topology()

	// Type A: per-socket pools, workers pinned to their data's socket.
	// A is memory-bound: being re-dispatched onto a different CCX than
	// the worker last ran on costs a cold-cache factor — the effect the
	// §4.4 CCX-aware placement optimization targets.
	prevCCX := make(map[kernel.TID]int)
	for sock := 0; sock < 2 && sock < topo.NumSockets(); sock++ {
		mask := kernel.MaskOf(topo.CPUsOfSocket(sock)...)
		rec := s.recs[QueryA]
		s.poolA[sock] = newSearchPool(k, cfg.WorkersA/2, rec, s.Totals[QueryA],
			func(name string, body kernel.ThreadFunc) *kernel.Thread {
				return spawnWorker(name+"-A", mask, body)
			},
			func(tc *kernel.TaskContext, r *Request) {
				svc := r.Service
				cpu := tc.Thread().OnCPU()
				if cpu >= 0 {
					ccx := topo.CPU(cpu).CCX
					if last, ok := prevCCX[tc.TID()]; ok && last != ccx {
						svc = svc * 135 / 100 // cold L3
					}
					prevCCX[tc.TID()] = ccx
				}
				tc.Run(svc)
			})
	}
	// Type B: SSD-bound short workers, any CPU.
	s.poolB = newSearchPool(k, cfg.WorkersB, s.recs[QueryB], s.Totals[QueryB],
		func(name string, body kernel.ThreadFunc) *kernel.Thread {
			return spawnWorker(name+"-B", kernel.Mask{}, body)
		},
		func(tc *kernel.TaskContext, r *Request) {
			tc.Run(r.Service / 2)
			tc.Sleep(ssdWait)
			tc.Run(r.Service / 2)
		})
	// Type C: long-living CPU-bound workers, any CPU.
	s.poolC = newSearchPool(k, cfg.WorkersC, s.recs[QueryC], s.Totals[QueryC],
		func(name string, body kernel.ThreadFunc) *kernel.Thread {
			return spawnWorker(name+"-C", kernel.Mask{}, body)
		},
		func(tc *kernel.TaskContext, r *Request) {
			tc.Run(r.Service)
		})

	// Server threads: receive queries, preprocess, dispatch.
	for i := 0; i < cfg.Servers; i++ {
		mb := kernel.NewMailbox[*Request](k)
		s.servers = append(s.servers, mb)
		spawnServer(fmt.Sprintf("search-server-%d", i), func(tc *kernel.TaskContext) {
			for {
				q := mb.Get(tc)
				tc.Run(preprocess)
				s.dispatch(q)
			}
		})
	}

	// Arrival processes.
	s.startArrivals(QueryA, cfg.RateA, Fixed(serviceA))
	s.startArrivals(QueryB, cfg.RateB, Fixed(serviceB))
	s.startArrivals(QueryC, cfg.RateC, Exponential(serviceC))

	// Per-second sampling (Fig 8 time series).
	sim.NewTicker(s.eng, cfg.SamplePeriod, func(now sim.Time) { s.sample(now, cfg.SamplePeriod) })
	return s
}

// arrivals is one query type's Poisson arrival process. It is bound
// once, so every arrival schedules the next through AfterCall without a
// closure.
type arrivals struct {
	s    *Search
	qt   int
	r    *sim.Rand
	mean sim.Duration
	svc  ServiceDist
	n    int // queries issued so far
}

func (s *Search) startArrivals(qt int, rate float64, svc ServiceDist) {
	a := &arrivals{s: s, qt: qt, r: s.rand.Fork(), mean: sim.Duration(1e9 / rate), svc: svc}
	a.arm()
}

func (a *arrivals) arm() { a.s.eng.AfterCall(a.r.Exp(a.mean), arrivalFire, a) }

// arrivalFire dispatches an arrival event to its process.
func arrivalFire(x any) { x.(*arrivals).fire() }

func (a *arrivals) fire() {
	s := a.s
	q := &Request{ID: uint64(a.n), Arrival: s.eng.Now(), Class: a.qt, Service: a.svc.Sample(a.r)}
	q.Remaining = q.Service
	s.servers[a.n%len(s.servers)].Put(q)
	a.n++
	a.arm()
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

func (s *Search) sample(now sim.Time, period sim.Duration) {
	for qt := 0; qt < 3; qt++ {
		rec := s.recs[qt]
		qps := float64(rec.Completed) / period.Seconds()
		s.QPS[qt].Add(now, qps)
		if rec.Hist.Count() > 0 {
			s.P99[qt].Add(now, float64(rec.Hist.P99())/float64(sim.Microsecond))
		} else {
			s.P99[qt].Add(now, 0)
		}
		rec.Completed = 0
		rec.Hist.Reset()
	}
}

// newSearchPool is a WorkerPool variant with a custom service body.
func newSearchPool(k *kernel.Kernel, n int, rec, total *LatencyRecorder,
	spawn func(string, kernel.ThreadFunc) *kernel.Thread,
	serve func(*kernel.TaskContext, *Request)) *WorkerPool {
	p := &WorkerPool{k: k, rec: rec, inbox: make(map[kernel.TID]*Request)}
	for i := 0; i < n; i++ {
		var th *kernel.Thread
		th = spawn(fmt.Sprintf("w%d", i), func(tc *kernel.TaskContext) {
			self := tc.Thread()
			for {
				tc.Block()
				if p.stopping {
					return
				}
				r := p.inbox[self.TID()]
				if r == nil {
					continue
				}
				delete(p.inbox, self.TID())
				serve(tc, r)
				done := tc.Now()
				p.rec.Record(r, done)
				total.Record(r, done)
				if len(p.backlog) > 0 {
					next := p.backlog[0]
					p.backlog = p.backlog[1:]
					p.inbox[self.TID()] = next
					tc.Kernel().Wake(self)
					continue
				}
				p.free = append(p.free, self)
			}
		})
		p.workers = append(p.workers, th)
		p.free = append(p.free, th)
	}
	return p
}

// AllWorkers returns every worker thread across the pools, so an
// experiment can move them into a ghOSt enclave.
func (s *Search) AllWorkers() []*kernel.Thread {
	var out []*kernel.Thread
	for _, p := range s.poolA {
		if p != nil {
			out = append(out, p.Workers()...)
		}
	}
	out = append(out, s.poolB.Workers()...)
	out = append(out, s.poolC.Workers()...)
	return out
}
