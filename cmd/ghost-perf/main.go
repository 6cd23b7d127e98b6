// Command ghost-perf is the benchmark for the simulator's own speed. It
// runs fixed workloads, checks that their simulated outputs repeat
// exactly, and reports host-time metrics: end to end from an untraced
// pass, and per layer from a separate traced pass (-trace 1). Every layer
// is measured from outside the simulator, by timing calls into public
// functions and reading counters the facade already exposes.
//
// Usage, from the repository root (builds, then runs):
//
//	bash cmd/ghost-perf/run.sh --workload shinjuku-rocksdb --seed 1 --seconds 10 --trace 0
//
// or from this directory:
//
//	go run . -workload all -quick
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 1 when an
// output check failed and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one benchmark invocation.
type config struct {
	workloads []*workload
	seed      uint64
	budget    time.Duration // measured host time per workload, after minReps
	traced    bool
	sz        sizes
}

// outcome collects everything one workload produced.
type outcome struct {
	w      *workload
	reps   []*repResult // untraced reps; all share rep 1's digest
	traced *repResult
	spans  *spans
	// Trace legs: host time of a fixed horizon without metrics, with the
	// default metrics, and with a full tracer, plus the full trace's export.
	legOff, legMetrics, legFull, legExport time.Duration
	attempted, failed                      int
	problems                               []string
}

func (oc *outcome) fail(format string, args ...any) {
	oc.failed++
	oc.problems = append(oc.problems, fmt.Sprintf(format, args...))
}

// accept counts r as one attempted operation and checks it: a panic or a
// digest that differs from rep 1's fails it.
func (oc *outcome) accept(r *repResult, what string) bool {
	oc.attempted++
	switch {
	case r.err != nil:
		oc.fail("%s: %v", what, r.err)
		return false
	case len(oc.reps) > 0 && r.digest != oc.reps[0].digest:
		oc.fail("%s: simulated output digest %s differs from rep 1's %s", what, hash(r.digest), hash(oc.reps[0].digest))
	}
	return true
}

func (oc *outcome) measured() time.Duration {
	var t time.Duration
	for _, r := range oc.reps {
		t += r.measured()
	}
	return t
}

func hash(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// runBenchmark runs the untraced reps round-robin across the workloads,
// so slow drift on a shared host spreads evenly over them, until each
// has minReps reps and its budget of measured host time; then, if
// asked, one traced rep and the trace legs of each workload.
func runBenchmark(c config, log io.Writer) []*outcome {
	ocs := make([]*outcome, len(c.workloads))
	for i, w := range c.workloads {
		ocs[i] = &outcome{w: w}
	}
	stopped := make([]bool, len(ocs))
	for rep := 1; ; rep++ {
		busy := false
		for i, oc := range ocs {
			if stopped[i] || (len(oc.reps) >= c.sz.minReps && oc.measured() >= c.budget) {
				continue
			}
			busy = true
			r := oc.w.rep(c.seed, c.sz, nil)
			if !oc.accept(r, fmt.Sprintf("rep %d", rep)) {
				stopped[i] = true
				continue
			}
			oc.reps = append(oc.reps, r)
			fmt.Fprintf(log, "%s rep %d: set-up %.3f s (%.3f wall s), %.0f simulated ms at %.2f ms/s (%.2f per wall s), reference run %.0f µs, peak heap %.2f MB, digest %s\n",
				oc.w.name, rep, setupS(r), r.setup.Seconds(), r.simMS, simPerS(r), simPerWallS(r),
				float64(r.ref)/1e3, float64(r.heapPeak)/1e6, hash(r.digest))
		}
		if !busy {
			break
		}
	}
	for _, oc := range ocs {
		if len(oc.reps) == 0 {
			continue
		}
		if oc.w.build != nil && (oc.reps[0].layer["workload.completed"] == 0 || oc.reps[0].events == 0) {
			oc.fail("no simulated progress: %s", oc.reps[0].summary)
		}
		if !c.traced {
			continue
		}
		oc.spans = newSpans()
		r := oc.w.rep(c.seed, c.sz, oc.spans)
		if !oc.accept(r, "traced rep") {
			continue
		}
		oc.traced = r
		if oc.w.build != nil {
			var err error
			oc.legOff, oc.legMetrics, oc.legFull, oc.legExport, err = oc.w.legs(c.seed, c.sz, oc.spans)
			if err != nil {
				oc.fail("trace export: %v", err)
			}
		}
	}
	return ocs
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize prints the readable report of every outcome and builds the
// result. Metric names are prefixed with the workload name when more
// than one workload ran.
func summarize(ocs []*outcome, traced bool, w io.Writer) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, oc := range ocs {
		res.Attempted += oc.attempted
		res.Failed += oc.failed
		fmt.Fprintf(w, "\n== %s: %s\n", oc.w.name, oc.w.why)
		for _, p := range oc.problems {
			fmt.Fprintf(w, "FAILED: %s\n", p)
		}
		if oc.failed > 0 || len(oc.reps) == 0 || (traced && oc.traced == nil) {
			res.Correct = false
			continue
		}
		r0 := oc.reps[0]
		same := fmt.Sprintf("%d reps", len(oc.reps))
		if oc.traced != nil {
			same += " and the traced rep"
		}
		fmt.Fprintf(w, "digest %s, identical across %s: %s\n", hash(r0.digest), same, r0.summary)
		fmt.Fprintf(w, "failed_frac %s\n", failedFrac(oc))
		defs, values := endToEnd, endToEndValues(oc.reps)
		if traced {
			defs, values = perLayer, perLayerValues(oc)
			printSpans(w, oc.spans)
		}
		for _, d := range defs {
			v, ok := values[d.name]
			if !ok {
				panic("ghost-perf: no value for metric " + d.name)
			}
			fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, v, d.unit)
			key := d.name
			if len(ocs) > 1 {
				key = oc.w.name + "/" + d.name
			}
			res.Metrics[key] = metricValue{Value: v, Unit: d.unit}
		}
	}
	if res.Attempted == 0 {
		res.Correct = false
	}
	return res
}

// failedFrac renders the share of failed operations as ROADMAP item 1
// counts them: reps that failed, and on check-scan the scenarios with an
// oracle violation, over those attempted.
func failedFrac(oc *outcome) string {
	if oc.w.build != nil {
		return fmt.Sprintf("%d/%d reps", oc.failed, oc.attempted)
	}
	l := oc.reps[0].layer
	return fmt.Sprintf("%.0f/%.0f scenarios violate an oracle (%.4f); the repros are in the digest",
		l["check.failed_scenarios"], l["check.scenarios"], l["check.failed_scenarios"]/l["check.scenarios"])
}

func printSpans(w io.Writer, tr *spans) {
	fmt.Fprintf(w, "%-22s %10s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "mean_ns")
	for id, a := range tr.agg {
		if a.count > 0 {
			fmt.Fprintf(w, "%-22s %10d %12.3f %12.3f %10d\n", spanNames[id], a.count,
				a.total.Seconds()*1e3, a.self.Seconds()*1e3, int64(a.total)/a.count)
		}
	}
	if wall, self := tr.runAccounting(); wall > 0 {
		fmt.Fprintf(w, "self times under ghost.run account for %.3f%% of its %.3f s wall time\n",
			100*self.Seconds()/wall.Seconds(), wall.Seconds())
	}
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ghost-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "workload seed; every generator derives from it")
	seconds := fs.Float64("seconds", 10, "host seconds of measured simulation per workload, once the minimum reps ran")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics instead of end-to-end ones")
	quick := fs.Bool("quick", false, "smoke size: 20 ms windows, 10 check scenarios, exactly two reps (ignores -seconds)")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as Chrome trace_event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c := config{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, sz: fullSizes}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "ghost-perf: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "ghost-perf: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *seconds < 0:
		fmt.Fprintf(stderr, "ghost-perf: -seconds must not be negative\n")
		return 2
	case *name == "all":
		c.workloads = workloads
	case workloadByName(*name) != nil:
		c.workloads = []*workload{workloadByName(*name)}
	default:
		fmt.Fprintf(stderr, "ghost-perf: unknown workload %q (have %s, all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *quick {
		c.sz, c.budget = quickSizes, 0
	}

	fmt.Fprintf(stdout, "ghost-perf: workload=%s seed=%d seconds=%g trace=%d quick=%v GOMAXPROCS=%d %s\n",
		*name, c.seed, *seconds, *trace, *quick, runtime.GOMAXPROCS(0), runtime.Version())
	ocs := runBenchmark(c, stdout)
	res := summarize(ocs, c.traced, stdout)
	if c.traced && *traceOut != "" {
		if err := writeTraceFile(*traceOut, ocs); err != nil {
			fmt.Fprintln(stderr, "ghost-perf:", err)
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "ghost-perf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func writeTraceFile(path string, ocs []*outcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, ocs); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
