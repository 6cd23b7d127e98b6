package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef is one reported metric; BENCHMARK.json lists the same names
// and units.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by the
// untraced pass.
var endToEnd = []metricDef{
	{"sim_ms_per_s", "ms/s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are reported by the traced pass (-trace 1). A layer a
// workload does not exercise reports 0. Simulated times carry the unit
// sim_us; they repeat exactly for a seed.
var perLayer = []metricDef{
	{"host.sim_ms_per_wall_s", "ms/s"},
	{"host.setup_wall_s", "s"},
	{"host.ref_us", "us"},
	{"ghost.run_slice_ms_p50", "ms"},
	{"ghost.run_slice_ms_p95", "ms"},
	{"ghost.construct_frac", "ratio"},
	{"sim.events", "count"},
	{"sim.max_queue", "count"},
	{"sim.events_per_s", "1/s"},
	{"kernel.ctx_switches", "count"},
	{"kernel.wakeups", "count"},
	{"kernel.ipis", "count"},
	{"kernel.ctx_switches_per_s", "1/s"},
	{"ghostcore.msgs_posted", "count"},
	{"ghostcore.msgs_delivered", "count"},
	{"ghostcore.txns_committed", "count"},
	{"ghostcore.txns_failed", "count"},
	{"ghostcore.estale", "count"},
	{"ghostcore.preemptions", "count"},
	{"ghostcore.queue_depth_max", "count"},
	{"ghostcore.commit_ratio", "ratio"},
	{"ghostcore.msg_delivery_us_p99", "sim_us"},
	{"ghostcore.txn_commit_us_p99", "sim_us"},
	{"agentsdk.steps", "count"},
	{"agentsdk.handoffs", "count"},
	{"agentsdk.assignments_per_step", "ratio"},
	{"policies.schedule_calls", "count"},
	{"policies.on_message_calls", "count"},
	{"policies.on_txn_fail_calls", "count"},
	{"policies.share", "ratio"},
	{"policies.schedule_share", "ratio"},
	{"policies.on_message_share", "ratio"},
	{"policies.empty_schedule_frac", "ratio"},
	{"workload.arrivals", "count"},
	{"workload.completed", "count"},
	{"workload.submit_share", "ratio"},
	{"workload.sim_p99_us", "sim_us"},
	{"workload.sim_kreq_per_s", "kreq/sim_s"},
	{"trace.metrics_overhead_frac", "ratio"},
	{"trace.full_overhead_frac", "ratio"},
	{"trace.export_frac", "ratio"},
	{"trace.span_overhead_frac", "ratio"},
	{"check.scenarios", "count"},
	{"check.failed_scenarios", "count"},
	{"check.violations", "count"},
	{"check.sharded_cost_ratio", "ratio"},
	{"runtime.mallocs_per_event", "1/event"},
	{"runtime.alloc_bytes_per_event", "B/event"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.goroutines_peak", "count"},
}

// runtimeSampler tracks the peak of live heap plus live goroutine stacks
// (one goroutine per simulated thread today) and the peak goroutine
// count. The memory is measured by collections the benchmark forces at
// quiescent points, so it does not depend on when the runtime happened
// to collect; reserved but idle stack memory is left out, since how much
// the runtime keeps cached depends on earlier reps.
type runtimeSampler struct {
	s                []metrics.Sample
	heapPeak, goPeak uint64
}

func newRuntimeSampler() *runtimeSampler {
	return &runtimeSampler{s: []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/scan/stack:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}}
}

// collect forces a collection and samples the memory it found in use.
func (r *runtimeSampler) collect() {
	runtime.GC()
	metrics.Read(r.s)
	r.heapPeak = max(r.heapPeak, r.s[0].Value.Uint64()+r.s[1].Value.Uint64())
	r.goPeak = max(r.goPeak, r.s[2].Value.Uint64())
}

func (r *runtimeSampler) sampleGoroutines() {
	metrics.Read(r.s[2:])
	r.goPeak = max(r.goPeak, r.s[2].Value.Uint64())
}

// rtCounters are cumulative runtime counters; sub gives a window.
type rtCounters struct {
	mallocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU               float64 // seconds
}

func readRuntimeCounters() rtCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtCounters{
		mallocs: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64(),
		gcCPU: s[3].Value.Float64(), totalCPU: s[4].Value.Float64(),
	}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{
		mallocs: a.mallocs - b.mallocs, allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU,
	}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs, 0 when empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs with linear interpolation
// between order statistics, 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// each maps every element of xs through f.
func each[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * 1e3
	}
	return out
}

// simPerWallS is a rep's speed in simulated ms per wall second of the
// measured run calls.
func simPerWallS(r *repResult) float64 { return r.simMS / r.measured().Seconds() }

// simPerS is a rep's speed in simulated ms per reference second.
func simPerS(r *repResult) float64 { return r.simMS / refSeconds(r.measured(), r.ref) }

// setupS is a rep's set-up time in reference seconds.
func setupS(r *repResult) float64 { return refSeconds(r.setup, r.setupRef) }

// endToEndValues computes the end-to-end metrics over the untraced reps:
// speed and set-up time are medians across reps; the heap peak is the
// largest in any rep.
func endToEndValues(reps []*repResult) map[string]float64 {
	return map[string]float64{
		"sim_ms_per_s": median(each(reps, simPerS)),
		"setup_s":      median(each(reps, setupS)),
		"peak_heap_mb": quantile(each(reps, func(r *repResult) float64 { return float64(r.heapPeak) / 1e6 }), 1),
	}
}

// perLayerValues computes the per-layer metrics: exact counts from the
// first untraced rep, host-time figures as medians over the untraced
// reps, and call costs from the traced rep and the trace legs.
func perLayerValues(oc *outcome) map[string]float64 {
	reps := oc.reps
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.name] = 0
	}
	for k, x := range reps[0].layer {
		v[k] = x
	}
	var slices []float64
	for _, r := range reps {
		slices = append(slices, ms(r.slices)...)
	}
	v["host.sim_ms_per_wall_s"] = median(each(reps, simPerWallS))
	v["host.setup_wall_s"] = median(each(reps, func(r *repResult) float64 { return r.setup.Seconds() }))
	v["host.ref_us"] = median(each(reps, func(r *repResult) float64 { return r.ref.Seconds() * 1e6 }))
	v["ghost.run_slice_ms_p50"] = quantile(slices, 0.50)
	v["ghost.run_slice_ms_p95"] = quantile(slices, 0.95)
	v["ghost.construct_frac"] = median(each(reps, func(r *repResult) float64 { return ratio(r.construct.Seconds(), r.setup.Seconds()) }))
	v["sim.events_per_s"] = median(each(reps, func(r *repResult) float64 { return float64(r.events) / r.measured().Seconds() }))
	v["kernel.ctx_switches_per_s"] = median(each(reps, func(r *repResult) float64 { return float64(r.ctxSw) / r.measured().Seconds() }))
	v["check.sharded_cost_ratio"] = median(each(reps, func(r *repResult) float64 {
		return ratio(median(ms(r.sharded)), median(ms(r.unsharded)))
	}))
	v["runtime.mallocs_per_event"] = median(each(reps, func(r *repResult) float64 { return ratio(float64(r.rt.mallocs), float64(r.events)) }))
	v["runtime.alloc_bytes_per_event"] = median(each(reps, func(r *repResult) float64 { return ratio(float64(r.rt.allocBytes), float64(r.events)) }))
	v["runtime.gc_cycles"] = median(each(reps, func(r *repResult) float64 { return float64(r.rt.gcCycles) }))
	v["runtime.gc_cpu_frac"] = median(each(reps, func(r *repResult) float64 { return ratio(r.rt.gcCPU, r.rt.totalCPU) }))
	v["runtime.goroutines_peak"] = float64(reps[0].goPeak)

	if tr := oc.spans; tr != nil {
		run := tr.agg[spanRun].total.Seconds()
		share := func(ids ...spanID) float64 {
			var t time.Duration
			for _, id := range ids {
				t += tr.agg[id].total
			}
			return ratio(t.Seconds(), run)
		}
		v["policies.schedule_calls"] = float64(tr.agg[spanSchedule].count)
		v["policies.on_message_calls"] = float64(tr.agg[spanOnMessage].count)
		v["policies.on_txn_fail_calls"] = float64(tr.agg[spanOnTxnFail].count)
		v["policies.share"] = share(spanSchedule, spanOnMessage, spanOnTxnFail)
		v["policies.schedule_share"] = share(spanSchedule)
		v["policies.on_message_share"] = share(spanOnMessage)
		v["policies.empty_schedule_frac"] = ratio(float64(oc.traced.emptySchedules), float64(tr.agg[spanSchedule].count))
		v["workload.submit_share"] = share(spanSubmit)
		v["trace.span_overhead_frac"] = ratio(median(each(reps, simPerS)), simPerS(oc.traced)) - 1
	}
	if oc.legOff > 0 {
		v["trace.metrics_overhead_frac"] = ratio(oc.legMetrics.Seconds(), oc.legOff.Seconds()) - 1
		v["trace.full_overhead_frac"] = ratio(oc.legFull.Seconds(), oc.legOff.Seconds()) - 1
		v["trace.export_frac"] = ratio(oc.legExport.Seconds(), oc.legFull.Seconds())
	}
	return v
}
