package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"ghost"
	"ghost/internal/check"
	wl "ghost/internal/workload"
)

// slice is the simulated time of one timed Machine.Run call.
const slice = 10 * ghost.Millisecond

// sizes fixes how much simulated work one repetition does.
type sizes struct {
	quick     bool
	warmup    ghost.Duration // machine workloads: simulated time before the window
	leg       ghost.Duration // horizon of each trace-overhead leg
	checkWarm int            // check-scan: warm-up scenarios (its set-up)
	checkRun  int            // check-scan: measured scenarios
	minReps   int
}

var (
	fullSizes = sizes{warmup: 100 * ghost.Millisecond, leg: 20 * ghost.Millisecond,
		checkWarm: 20, checkRun: 100, minReps: 3}
	quickSizes = sizes{quick: true, warmup: 10 * ghost.Millisecond, leg: 5 * ghost.Millisecond,
		checkWarm: 2, checkRun: 8, minReps: 2}
)

// quickWindow replaces every measured window under -quick.
const quickWindow = 20 * ghost.Millisecond

// workload is one fixed input set. Machine workloads build a facade
// machine and run it in slices; check-scan (build == nil) runs generated
// check scenarios.
type workload struct {
	name, why string
	window    ghost.Duration // measured simulated time per rep
	build     func(seed uint64, warmup ghost.Duration, tr *spans, opts ...ghost.MachineOption) *rig
}

var workloads = []*workload{
	{
		name:   "shinjuku-rocksdb",
		why:    "policy- and transaction-bound: global Shinjuku agent on a 21-CPU enclave, 200 workers, RocksDB mix at 280k req/s; policy and ghostcore changes show here",
		window: 600 * ghost.Millisecond,
		build:  buildShinjuku,
	},
	{
		name:   "search-ghost",
		why:    "thread- and handoff-heavy: 256-CPU Search policy over 374 workers at 660k qps; every Schedule walks 256-CPU masks",
		window: 300 * ghost.Millisecond,
		build: func(seed uint64, _ ghost.Duration, tr *spans, opts ...ghost.MachineOption) *rig {
			return buildSearch(seed, true, tr, opts...)
		},
	},
	{
		name:   "search-cfs",
		why:    "same Search traffic with no enclave: ghostcore, agentsdk and policies do no work, so their changes must not move it",
		window: 400 * ghost.Millisecond,
		build: func(seed uint64, _ ghost.Duration, tr *spans, opts ...ghost.MachineOption) *rig {
			return buildSearch(seed, false, tr, opts...)
		},
	},
	{
		name: "check-scan",
		why:  "120 short 2-8 CPU check scenarios under all policies, faults and oracles: construction and teardown dominate",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rig is one constructed machine workload.
type rig struct {
	m      *ghost.Machine
	sets   []*ghost.AgentSet
	src    *ghost.PoissonSource     // nil when the workload generates its own arrivals
	recs   []*ghost.LatencyRecorder // one per request type
	policy *timedPolicy             // traced reps only
}

// buildShinjuku is the §4.2 setup: XeonE5, a 21-CPU enclave whose first
// CPU hosts the global Shinjuku agent (30 µs slices), 200 pool workers,
// and an open-loop Poisson source with the bimodal RocksDB mix.
func buildShinjuku(seed uint64, warmup ghost.Duration, tr *spans, opts ...ghost.MachineOption) *rig {
	m := ghost.NewMachine(ghost.XeonE5(), opts...)
	r := &rig{m: m}
	enc := m.NewEnclave(ghost.MaskAll(21))
	r.sets = []*ghost.AgentSet{m.StartAgents(enc, r.wrap(ghost.NewShinjukuPolicy(), tr), ghost.Global())}
	rec := &ghost.LatencyRecorder{WarmupUntil: ghost.Time(warmup)}
	r.recs = []*ghost.LatencyRecorder{rec}
	pool := m.NewWorkerPool(200, rec, func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name, Class: ghost.Ghost(enc)}, body)
	})
	sink := pool.Submit
	if tr != nil {
		sink = func(req *ghost.Request) {
			tr.begin(spanSubmit)
			pool.Submit(req)
			tr.end()
		}
	}
	r.src = m.NewPoissonSource(ghost.NewRand(seed), 280_000, ghost.RocksDBService(), sink)
	return r
}

// buildSearch is the §4.4 setup: AMD Rome (256 CPUs) with the default
// Search load, its workers in a whole-machine enclave under the Search
// policy (ghost) or under CFS (no enclave).
func buildSearch(seed uint64, ghostSched bool, tr *spans, opts ...ghost.MachineOption) *rig {
	m := ghost.NewMachine(ghost.AMDRome(), opts...)
	r := &rig{m: m}
	class := ghost.CFS
	if ghostSched {
		enc := m.NewEnclave(m.AllCPUs())
		r.sets = []*ghost.AgentSet{m.StartAgents(enc, r.wrap(ghost.NewSearchPolicy(), tr), ghost.Global())}
		class = ghost.Ghost(enc)
	}
	cfg := wl.DefaultSearchConfig()
	cfg.Seed = seed
	s := wl.NewSearch(m.Kernel(), cfg,
		func(name string, aff ghost.CPUMask, body ghost.ThreadFunc) *ghost.Thread {
			return m.Spawn(ghost.ThreadOpts{Name: name, Affinity: aff, Class: class}, body)
		},
		func(name string, body ghost.ThreadFunc) *ghost.Thread {
			return m.Spawn(ghost.ThreadOpts{Name: name}, body)
		})
	r.recs = s.Totals[:]
	return r
}

// wrap returns the policy to start: itself, or under tracing a timing
// wrapper around it.
func (r *rig) wrap(p ghost.GlobalPolicy, tr *spans) ghost.GlobalPolicy {
	if tr == nil {
		return p
	}
	r.policy = &timedPolicy{inner: p, tr: tr}
	return r.policy
}

// outcome renders the simulated request results: completions, p50 and
// p99 per request type.
func (r *rig) outcome() string {
	var b strings.Builder
	for i, rec := range r.recs {
		fmt.Fprintf(&b, "type%c completed=%d p50=%v p99=%v ", 'A'+i, rec.Completed, rec.Hist.P50(), rec.Hist.P99())
	}
	return strings.TrimSpace(b.String())
}

// repResult is one repetition of one workload.
type repResult struct {
	digest    string          // every simulated output; identical across reps of a seed
	summary   string          // the readable head of the digest
	construct time.Duration   // machine construction (machine workloads)
	setup     time.Duration   // construction plus the warm-up run calls
	setupRef  time.Duration   // mean host time of one reference run during set-up
	simMS     float64         // simulated ms the measured run calls covered
	slices    []time.Duration // host time of each measured run call
	heapPeak  uint64          // live heap plus stacks, largest at a forced collection
	goPeak    uint64
	ref       time.Duration // mean host time of one reference run in the window
	rt        rtCounters    // runtime counters over the measured window
	events    uint64        // engine events in the measured window (0: not observable)
	ctxSw     uint64        // context switches in the measured window
	layer     map[string]float64
	// emptySchedules counts Schedule calls that assigned nothing (traced
	// reps of ghOSt workloads).
	emptySchedules int64
	// check-scan only: per-scenario host time by engine kind.
	sharded, unsharded []time.Duration
	err                error
}

// measured is the host time of the measured run calls.
func (r *repResult) measured() time.Duration { return sum(r.slices) }

// rep runs one repetition; a panic on the driving goroutine becomes a
// failed rep.
func (w *workload) rep(seed uint64, sz sizes, tr *spans) (res *repResult) {
	defer func() {
		if p := recover(); p != nil {
			res = &repResult{err: fmt.Errorf("%s: panic: %v", w.name, p)}
		}
	}()
	if w.build == nil {
		return checkRep(seed, sz, tr)
	}
	return w.machineRep(seed, sz, tr)
}

func (w *workload) machineRep(seed uint64, sz sizes, tr *spans) *repResult {
	window := w.window
	if sz.quick {
		window = quickWindow
	}
	res := &repResult{simMS: float64(window) / float64(ghost.Millisecond)}
	runtime.GC()
	smp := newRuntimeSampler()
	t0 := time.Now()
	tr.begin(spanConstruct)
	r := w.build(seed, sz.warmup, tr)
	tr.end()
	defer r.m.Shutdown()
	res.construct = time.Since(t0)
	setupRef := newReference()
	res.setup = res.construct + sum(runSlices(r.m, sz.warmup, tr, false, setupRef, smp))
	res.setupRef = setupRef.mean()
	smp.collect()

	m0 := r.m.Metrics()
	c0 := readRuntimeCounters()
	ref := newReference()
	res.slices = runSlices(r.m, window, tr, true, ref, smp)
	res.rt = readRuntimeCounters().sub(c0)
	res.ref = ref.mean()
	smp.collect()
	m1 := r.m.Metrics()
	res.events = m1.EngineEvents - m0.EngineEvents
	res.ctxSw = m1.CtxSwitches - m0.CtxSwitches
	res.heapPeak, res.goPeak = smp.heapPeak, smp.goPeak
	res.layer = r.layer(m1)
	if r.policy != nil {
		res.emptySchedules = r.policy.empty
	}
	res.summary = fmt.Sprintf("%s events=%d", r.outcome(), m1.EngineEvents)
	res.digest = res.summary + "\n" + m1.String()
	return res
}

// runSlices advances m by d in slice-sized Machine.Run calls, running
// the reference after each, and returns the host time of each call. The
// spans of the first slice of a measured window are kept raw.
func runSlices(m *ghost.Machine, d ghost.Duration, tr *spans, measured bool, ref *reference, smp *runtimeSampler) []time.Duration {
	var out []time.Duration
	for done := ghost.Duration(0); done < d; done += slice {
		tr.setCapture(measured && done == 0)
		t := time.Now()
		tr.begin(spanRun)
		m.Run(min(slice, d-done))
		tr.end()
		out = append(out, time.Since(t))
		tr.setCapture(false)
		smp.sampleGoroutines()
		ref.run()
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// layer collects the exact simulated counters of a finished rep.
func (r *rig) layer(m *ghost.Metrics) map[string]float64 {
	var posted, delivered, committed, failed, estale, preempt uint64
	depth := 0
	var delivery, commit ghost.Histogram
	for _, em := range m.Enclaves {
		posted += em.MsgsPosted
		delivered += em.MsgsDelivered
		committed += em.TxnsCommitted
		failed += em.TxnsFailed
		estale += em.TxnESTALE
		preempt += em.Preemptions
		depth = max(depth, em.QueueDepthMax)
		delivery.Merge(&em.MsgDelivery)
		commit.Merge(&em.TxnCommit)
	}
	var steps, handoffs, assigned uint64
	for _, s := range r.sets {
		steps += s.StepsExecuted
		handoffs += s.Handoffs
		assigned += s.TxnsCommitted + s.TxnsFailed
	}
	var completed uint64
	var kreq float64
	for _, rec := range r.recs {
		completed += rec.Completed
		kreq += rec.Throughput(r.m.Now()) / 1e3
	}
	var arrivals uint64
	if r.src != nil {
		arrivals = r.src.Emitted()
	}
	us := func(d ghost.Duration) float64 { return float64(d) / float64(ghost.Microsecond) }
	return map[string]float64{
		"sim.events":                    float64(m.EngineEvents),
		"sim.max_queue":                 float64(m.EngineMaxQueue),
		"kernel.ctx_switches":           float64(m.CtxSwitches),
		"kernel.wakeups":                float64(m.Wakeups),
		"kernel.ipis":                   float64(m.IPIs),
		"ghostcore.msgs_posted":         float64(posted),
		"ghostcore.msgs_delivered":      float64(delivered),
		"ghostcore.txns_committed":      float64(committed),
		"ghostcore.txns_failed":         float64(failed),
		"ghostcore.estale":              float64(estale),
		"ghostcore.preemptions":         float64(preempt),
		"ghostcore.queue_depth_max":     float64(depth),
		"ghostcore.commit_ratio":        ratio(float64(committed), float64(committed+failed)),
		"ghostcore.msg_delivery_us_p99": us(delivery.P99()),
		"ghostcore.txn_commit_us_p99":   us(commit.P99()),
		"agentsdk.steps":                float64(steps),
		"agentsdk.handoffs":             float64(handoffs),
		"agentsdk.assignments_per_step": ratio(float64(assigned), float64(steps)),
		"workload.arrivals":             float64(arrivals),
		"workload.completed":            float64(completed),
		"workload.sim_p99_us":           us(r.recs[0].Hist.P99()),
		"workload.sim_kreq_per_s":       kreq,
	}
}

// legs times fresh runs of the leg horizon without metrics, with the
// default metrics-only tracer, and with a full event tracer, whose export
// through Machine.TraceTo is timed too. The three alternate for
// legRounds rounds, and each figure is the median; the full tracer
// holds every event in memory, which bounds the horizon.
func (w *workload) legs(seed uint64, sz sizes, tr *spans) (off, metricsOnly, full, export time.Duration, err error) {
	leg := func(opts ...ghost.MachineOption) (time.Duration, *rig) {
		runtime.GC()
		r := w.build(seed, sz.warmup, nil, opts...)
		t := time.Now()
		r.m.Run(sz.leg)
		return time.Since(t), r
	}
	var offs, metricsOnlys, fulls, exports []time.Duration
	for i := 0; i < legRounds; i++ {
		d, r := leg(ghost.WithoutMetrics())
		r.m.Shutdown()
		offs = append(offs, d)
		d, r = leg()
		r.m.Shutdown()
		metricsOnlys = append(metricsOnlys, d)
		d, r = leg(ghost.WithTrace(ghost.NewTracer()))
		fulls = append(fulls, d)
		t := time.Now()
		tr.begin(spanTraceExport)
		if e := r.m.TraceTo(io.Discard); e != nil {
			err = e
		}
		tr.end()
		exports = append(exports, time.Since(t))
		r.m.Shutdown()
	}
	return medianDuration(offs), medianDuration(metricsOnlys), medianDuration(fulls), medianDuration(exports), err
}

// legRounds is how many times each trace leg runs.
const legRounds = 3

func medianDuration(ds []time.Duration) time.Duration {
	return time.Duration(median(each(ds, func(d time.Duration) float64 { return float64(d) })))
}

// checkRep runs check scenarios seed .. seed+checkWarm+checkRun-1; the
// first checkWarm are the set-up. A scenario with an oracle violation is
// a simulated output, recorded in the digest: the known violations are
// model bugs, not benchmark failures. As on machine workloads, the heap
// is measured by collections forced at the end of the set-up and of the
// measured scenarios; between scenarios that is what they leave behind.
func checkRep(seed uint64, sz sizes, tr *spans) *repResult {
	res := &repResult{}
	runtime.GC()
	smp := newRuntimeSampler()
	var violating []string
	violations := 0
	setupRef, ref := newReference(), newReference()
	var c0 rtCounters
	for i := 0; i < sz.checkWarm+sz.checkRun; i++ {
		if i == sz.checkWarm {
			smp.collect()
			c0 = readRuntimeCounters()
		}
		s := check.Generate(seed + uint64(i))
		measured := i >= sz.checkWarm
		tr.setCapture(i == sz.checkWarm)
		t := time.Now()
		tr.begin(spanScenario)
		out := s.Run()
		tr.end()
		d := time.Since(t)
		tr.setCapture(false)
		smp.sampleGoroutines()
		if out.Failed() {
			violating = append(violating, s.Repro())
			violations += len(out.Violations)
		}
		if !measured {
			res.setup += d
			setupRef.run()
			continue
		}
		res.slices = append(res.slices, d)
		res.simMS += float64(s.Horizon) / float64(ghost.Millisecond)
		ref.run()
		// Read the engine kind from the repro string rather than a
		// Scenario field, so the benchmark keeps building if the field
		// goes away.
		if strings.Contains(s.Repro(), " shards=") {
			res.sharded = append(res.sharded, d)
		} else {
			res.unsharded = append(res.unsharded, d)
		}
	}
	res.rt = readRuntimeCounters().sub(c0)
	res.ref, res.setupRef = ref.mean(), setupRef.mean()
	smp.collect()
	res.heapPeak, res.goPeak = smp.heapPeak, smp.goPeak
	sort.Strings(violating)
	n := sz.checkWarm + sz.checkRun
	res.summary = fmt.Sprintf("scenarios=%d violating=%d violations=%d", n, len(violating), violations)
	res.digest = res.summary + "\n" + strings.Join(violating, "\n")
	res.layer = map[string]float64{
		"check.scenarios":        float64(n),
		"check.failed_scenarios": float64(len(violating)),
		"check.violations":       float64(violations),
	}
	return res
}
