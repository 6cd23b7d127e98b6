package env

import (
	"fmt"
	"sort"
	"strings"

	"ghost"
)

// Observation is a deterministic snapshot of the enclave after a Step.
// For a fixed Spec and action sequence the stream of observations is
// byte-identical (via String), alongside any number of concurrently
// running environments.
type Observation struct {
	// Step counts completed Steps; Now is the simulated time.
	Step int
	Now  ghost.Time
	// Threads lists every thread the policy tracks, sorted by TID.
	Threads []ThreadObs
	// QueueDepth is the number of runnable threads awaiting dispatch.
	QueueDepth int
	// IdleCPUs lists idle worker CPUs in ascending order (the agent's
	// CPU is never listed — it cannot be a dispatch target).
	IdleCPUs []int
	// Cumulative counters since Open.
	Arrivals    uint64
	Completions uint64
	FailedTxns  uint64
	// Window summarizes request latency over the last Step only; Total
	// since Open.
	Window LatencySummary
	Total  LatencySummary
}

// ThreadObs is the per-thread slice of an Observation.
type ThreadObs struct {
	TID  int
	Name string
	// Runnable: awaiting dispatch. Running: committed to CPU. Neither:
	// blocked.
	Runnable bool
	Running  bool
	// CPU is the thread's placement while Running, else -1.
	CPU int
	// Band is the thread's priority band (OpSetBand; default 0).
	Band int
	// Runtime is accumulated CPU time.
	Runtime ghost.Duration
	// WaitingFor is how long the thread has been awaiting dispatch
	// (zero unless Runnable).
	WaitingFor ghost.Duration
}

// LatencySummary condenses a latency histogram.
type LatencySummary struct {
	Count uint64
	Mean  ghost.Duration
	P50   ghost.Duration
	P90   ghost.Duration
	P99   ghost.Duration
	Max   ghost.Duration
}

func summarize(h *ghost.Histogram) LatencySummary {
	if h.Count() == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count: h.Count(), Mean: h.Mean(),
		P50: h.P50(), P90: h.P90(), P99: h.P99(), Max: h.Max(),
	}
}

func (e *Env) observe() Observation {
	now := e.m.Now()
	o := Observation{
		Step:        e.stepN,
		Now:         now,
		QueueDepth:  len(e.cp.queue),
		Arrivals:    e.arrivals,
		Completions: e.completions,
		FailedTxns:  e.cp.failedTxns,
		Window:      summarize(&e.winHist),
		Total:       summarize(&e.totalHist),
	}
	tids := make([]int, 0, len(e.cp.tr.Threads))
	for tid := range e.cp.tr.Threads {
		tids = append(tids, int(tid))
	}
	sort.Ints(tids)
	for _, tid := range tids {
		ts := e.cp.tr.Threads[ghost.TID(tid)]
		to := ThreadObs{
			TID:      tid,
			Name:     ts.Thread.Name(),
			Runnable: ts.Runnable,
			Running:  ts.Running,
			CPU:      -1,
			Band:     e.cp.bands[ghost.TID(tid)],
			Runtime:  ts.Thread.CPUTime(),
		}
		if ts.Running {
			to.CPU = ts.CPU
		}
		if ts.Runnable {
			if since, ok := e.cp.since[ghost.TID(tid)]; ok {
				to.WaitingFor = now - since
			}
		}
		o.Threads = append(o.Threads, to)
	}
	work := e.workCPUSet()
	for _, cpu := range e.m.IdleCPUs() {
		if work[int(cpu)] {
			o.IdleCPUs = append(o.IdleCPUs, int(cpu))
		}
	}
	sort.Ints(o.IdleCPUs)
	return o
}

// workCPUSet marks the enclave CPUs eligible for dispatch (everything
// but the global agent's CPU).
func (e *Env) workCPUSet() map[int]bool {
	set := make(map[int]bool, e.spec.CPUs)
	for cpu := 1; cpu <= e.spec.CPUs; cpu++ {
		set[cpu] = true
	}
	return set
}

// String renders the observation as one deterministic line, suitable
// for digesting streams in reproducibility tests.
func (o Observation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "step=%d now=%v q=%d idle=%v arr=%d done=%d failed=%d",
		o.Step, o.Now, o.QueueDepth, o.IdleCPUs, o.Arrivals, o.Completions, o.FailedTxns)
	fmt.Fprintf(&b, " win[n=%d p99=%v] tot[n=%d p99=%v max=%v]",
		o.Window.Count, o.Window.P99, o.Total.Count, o.Total.P99, o.Total.Max)
	for _, t := range o.Threads {
		state := "B"
		switch {
		case t.Running:
			state = "R"
		case t.Runnable:
			state = "Q"
		}
		fmt.Fprintf(&b, " %d:%s/%d/b%d/%v", t.TID, state, t.CPU, t.Band, t.Runtime)
	}
	return b.String()
}
