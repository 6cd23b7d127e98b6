// Package workload implements the load generators and application models
// of the paper's evaluation: the bimodal RocksDB request workload (§4.2),
// the Snap message-processing workload (§4.3), the Google Search query
// model (§4.4), batch antagonists, and the bwaves-style VM workload
// (§4.5). Workloads drive simulated kernel threads and record end-to-end
// latency distributions.
package workload

import (
	"ghost/internal/sim"
	"ghost/internal/stats"
)

// Request is one unit of work flowing through a workload.
type Request struct {
	ID      uint64
	Arrival sim.Time
	// Service is the total CPU time the request needs.
	Service sim.Duration
	// Remaining tracks service not yet executed (for preemptive
	// run-to-limit loops in dataplane baselines).
	Remaining sim.Duration
	// Done is invoked at completion time.
	Done func(r *Request, completed sim.Time)
	// Class tags the request (e.g. Snap message size class, query type).
	Class int
}

// ServiceDist draws request service times.
type ServiceDist interface {
	Sample(r *sim.Rand) sim.Duration
}

// Fixed is a constant service time.
type Fixed sim.Duration

// Sample implements ServiceDist.
func (f Fixed) Sample(*sim.Rand) sim.Duration { return sim.Duration(f) }

// Exponential service times with the given mean.
type Exponential sim.Duration

// Sample implements ServiceDist.
func (e Exponential) Sample(r *sim.Rand) sim.Duration { return r.Exp(sim.Duration(e)) }

// Bimodal is the dispersive distribution of §4.2: with probability
// PLong, service takes Long; otherwise Short.
type Bimodal struct {
	Short sim.Duration
	Long  sim.Duration
	PLong float64
}

// Sample implements ServiceDist.
func (b Bimodal) Sample(r *sim.Rand) sim.Duration {
	if r.Float64() < b.PLong {
		return b.Long
	}
	return b.Short
}

// RocksDBService returns the §4.2 workload: every request performs an
// in-memory GET (~6 µs) plus processing of 4 µs for 99.5 % of requests
// and 10 ms for the dispersive 0.5 % tail.
func RocksDBService() Bimodal {
	const get = 6 * sim.Microsecond
	return Bimodal{
		Short: get + 4*sim.Microsecond,
		Long:  get + 10*sim.Millisecond,
		PLong: 0.005,
	}
}

// LatencyRecorder accumulates request latency and throughput.
type LatencyRecorder struct {
	Hist      stats.Histogram
	Completed uint64
	// WarmupUntil discards samples before this time (ramp-up).
	WarmupUntil sim.Time
}

// Record logs one completed request.
func (lr *LatencyRecorder) Record(r *Request, completed sim.Time) {
	if r.Arrival < lr.WarmupUntil {
		return
	}
	lr.Completed++
	lr.Hist.Record(completed - r.Arrival)
}

// Throughput returns completed requests per second over [warmup, now].
func (lr *LatencyRecorder) Throughput(now sim.Time) float64 {
	window := now - lr.WarmupUntil
	if window <= 0 {
		return 0
	}
	return float64(lr.Completed) / window.Seconds()
}
