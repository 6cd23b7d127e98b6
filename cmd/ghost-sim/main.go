// Command ghost-sim runs an ad-hoc scheduling scenario: a Poisson
// request workload served by a worker pool under a chosen scheduler, on
// a chosen machine, printing the latency distribution.
//
// Usage:
//
//	ghost-sim -machine xeon-e5 -sched ghost-shinjuku -rate 200000 -dur 2s
//	ghost-sim -sched cfs -service 25us -workers 32
//	ghost-sim -seeds 8 -parallel 4   # seed sensitivity sweep, 4 workers
//	ghost-sim -snapshot-every 100ms  # write a .snap checkpoint per interval
//	ghost-sim -restore f.snap -dur 1s  # resume one and run to t=1s
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"ghost"
	"ghost/internal/cli"
	"ghost/internal/experiments"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

// scenario is one fully resolved simulation configuration.
type scenario struct {
	machine   string
	topo      *ghost.Topology
	sched     string
	rate      float64
	service   time.Duration
	bimodal   bool
	workers   int
	cpus      int
	dur       time.Duration
	seed      uint64
	snapEvery time.Duration
	restore   string
	traceOut  string
	metrics   bool
	faultsIn  string
	invar     bool
}

func main() { os.Exit(realMain()) }

// realMain returns the exit status instead of calling os.Exit directly,
// so the deferred -cpuprofile/-memprofile stop function always runs.
func realMain() int {
	var (
		machine  = flag.String("machine", "xeon-e5", "machine: skylake, haswell, xeon-e5, rome")
		sched    = flag.String("sched", "ghost-fifo", "scheduler: cfs, microquanta, ghost-fifo, ghost-shinjuku")
		rate     = flag.Float64("rate", 100000, "request arrival rate (req/s)")
		service  = flag.Duration("service", 10*time.Microsecond, "request service time")
		bimodal  = flag.Bool("rocksdb", false, "use the paper's bimodal RocksDB service distribution")
		workers  = flag.Int("workers", 32, "worker pool size")
		cpus     = flag.Int("cpus", 20, "CPUs for the workers (plus one for the agent)")
		dur      = flag.Duration("dur", time.Second, "simulated duration")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file (load at ui.perfetto.dev)")
		metrics  = flag.Bool("metrics", false, "print aggregate scheduling metrics after the run (with -restore, the engine: line covers the whole run, the per-enclave counters only the resumed span)")
		invar    = flag.Bool("invariants", true, "check protocol invariants online (see cmd/ghost-check); violations exit non-zero")
		faultsIn = flag.String("faults", "", `fault plan, e.g. "upgrade@500ms" or "crash@300ms" or `+
			`"msgdrop@100ms/50ms/0.2,ipidelay@200ms/10ms/30us" (kinds: crash, stall, slow, `+
			`msgdrop, msgdelay, msgdup, ipidelay, ipiloss, txnfail, upgrade)`)
	)
	var c cli.Common
	c.SeedFlag(flag.CommandLine, 1)
	c.SeedsFlag(flag.CommandLine, 1, "simulations")
	c.ParallelFlag(flag.CommandLine)
	c.QuickFlag(flag.CommandLine, "cap -dur at 200ms for a fast smoke pass")
	c.SnapshotFlags(flag.CommandLine)
	c.ProfileFlags(flag.CommandLine)
	flag.Parse()
	seed, seeds, parallel := &c.Seed, &c.Seeds, &c.Parallel
	if c.Quick && *dur > 200*time.Millisecond {
		*dur = 200 * time.Millisecond
	}

	var topo *ghost.Topology
	switch *machine {
	case "skylake":
		topo = ghost.Skylake()
	case "haswell":
		topo = ghost.Haswell()
	case "xeon-e5":
		topo = ghost.XeonE5()
	case "rome":
		topo = ghost.AMDRome()
	default:
		fmt.Fprintf(os.Stderr, "unknown machine %q\n", *machine)
		return 1
	}
	if *cpus+1 > topo.NumCPUs() {
		fmt.Fprintf(os.Stderr, "machine has only %d CPUs\n", topo.NumCPUs())
		return 1
	}
	if *seeds > 1 && *traceOut != "" {
		fmt.Fprintf(os.Stderr, "-trace needs a single run; drop -seeds\n")
		return 1
	}
	if (c.SnapshotEvery > 0 || c.Restore != "") && *seeds > 1 {
		fmt.Fprintf(os.Stderr, "-snapshot-every/-restore need a single run; drop -seeds\n")
		return 1
	}
	sc := scenario{
		machine: *machine, topo: topo, sched: *sched, rate: *rate,
		service: *service, bimodal: *bimodal, workers: *workers, cpus: *cpus,
		dur: *dur, seed: *seed, snapEvery: c.SnapshotEvery,
		restore: c.Restore, traceOut: *traceOut,
		metrics: *metrics, faultsIn: *faultsIn, invar: *invar,
	}
	if err := sc.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ghost-sim:", err)
		return 1
	}

	stop, err := c.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghost-sim:", err)
		return 1
	}
	defer stop()

	if sc.restore != "" {
		out, err := sc.runRestored()
		fmt.Print(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return 1
		}
		return 0
	}
	if *seeds <= 1 {
		out, err := sc.run()
		fmt.Print(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return 1
		}
		return 0
	}

	// Seed sweep: each seed is an independent deterministic simulation,
	// executed across the runner's worker pool and printed in seed order.
	jobs := make([]experiments.Job, *seeds)
	for i := 0; i < *seeds; i++ {
		s := sc
		s.seed = *seed + uint64(i)
		jobs[i] = experiments.Job{
			Name: fmt.Sprintf("seed-%d", s.seed),
			Run: func() any {
				out, err := s.run()
				if err != nil {
					return err
				}
				return out
			},
		}
	}
	results := experiments.RunJobs(experiments.Options{Parallel: *parallel}.Parallelism(), jobs)
	failed := false
	for _, r := range results {
		if err, ok := r.(error); ok {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			failed = true
			continue
		}
		fmt.Print(r.(string))
	}
	if failed {
		return 1
	}
	return 0
}

// validate rejects workload flags that would panic or simulate nothing,
// and a fault plan that a snapshot cannot carry, before any machine is
// built.
func (sc scenario) validate() error {
	switch {
	case sc.snapEvery > 0 && sc.faultsIn != "":
		return fmt.Errorf("-snapshot-every is incompatible with -faults: pending fault closures fall outside the snapshot envelope")
	case sc.restore != "" && sc.faultsIn != "":
		return fmt.Errorf("-restore is incompatible with -faults: a snapshot carries no fault plan, so the resumed run could not inject one")
	case !(sc.rate > 0) || math.IsInf(sc.rate, 1):
		return fmt.Errorf("-rate %v: want a finite arrival rate above 0", sc.rate)
	case sc.service < 0:
		return fmt.Errorf("-service %v: want a service time of at least 0", sc.service)
	case sc.workers < 1:
		return fmt.Errorf("-workers %d: want at least 1 worker", sc.workers)
	case sc.cpus < 1:
		return fmt.Errorf("-cpus %d: want at least 1 worker CPU", sc.cpus)
	case sc.dur <= 0:
		return fmt.Errorf("-dur %v: want a simulated duration above 0", sc.dur)
	}
	return nil
}

// run executes the scenario and returns its rendered output. Errors from
// flag-dependent setup (fault plan parsing, trace file I/O) are returned
// so a sweep reports them per seed.
func (sc scenario) run() (string, error) {
	var b strings.Builder
	var opts []ghost.MachineOption
	if sc.invar {
		opts = append(opts, ghost.WithInvariants())
	}
	if sc.traceOut != "" {
		opts = append(opts, ghost.WithTrace(ghost.NewTracer()))
	}
	if sc.faultsIn != "" {
		plan, err := ghost.ParseFaultPlan(sc.faultsIn, sc.seed)
		if err != nil {
			return "", err // ParsePlan errors carry the "faults:" prefix
		}
		opts = append(opts, ghost.WithFaults(plan))
	}
	m := ghost.NewMachine(sc.topo, opts...)
	defer m.Shutdown()

	var mask ghost.CPUMask
	for i := 0; i <= sc.cpus; i++ {
		mask.Set(ghost.CPUID(i))
	}

	rec := &workload.LatencyRecorder{WarmupUntil: sim.Duration(sc.dur) / 10}
	var spawn func(name string, body ghost.ThreadFunc) *ghost.Thread
	switch sc.sched {
	case "cfs":
		spawn = func(name string, body ghost.ThreadFunc) *ghost.Thread {
			return m.Spawn(ghost.ThreadOpts{Name: name, Affinity: mask}, body)
		}
	case "microquanta":
		spawn = func(name string, body ghost.ThreadFunc) *ghost.Thread {
			return m.Spawn(ghost.ThreadOpts{Name: name, Affinity: mask, Class: ghost.MicroQuanta}, body)
		}
	case "ghost-fifo", "ghost-shinjuku":
		enc := m.NewEnclave(mask)
		// The upgrade factory lets "-faults upgrade@T" hand the enclave
		// to a fresh generation of the same policy.
		var factory func() any
		if sc.sched == "ghost-fifo" {
			factory = func() any { return ghost.NewFIFOPolicy() }
		} else {
			factory = func() any { return ghost.NewShinjukuPolicy() }
		}
		m.StartAgents(enc, factory(), ghost.Global(), ghost.WithUpgradePolicy(factory))
		spawn = func(name string, body ghost.ThreadFunc) *ghost.Thread {
			return m.Spawn(ghost.ThreadOpts{Name: name, Class: ghost.Ghost(enc)}, body)
		}
	default:
		return "", fmt.Errorf("unknown scheduler %q", sc.sched)
	}

	pool := workload.NewWorkerPool(m.Kernel(), sc.workers, rec, spawn)
	var dist workload.ServiceDist = workload.Fixed(sim.Duration(sc.service))
	if sc.bimodal {
		dist = workload.RocksDBService()
	}
	src := workload.NewPoissonSource(m.Kernel().Engine(), sim.NewRand(sc.seed), sc.rate, dist, pool.Submit)
	// Registered as snapshot components so -snapshot-every checkpoints
	// capture the serving structure, not just the kernel.
	m.AddSnapshotComponent("pool", pool)
	m.AddSnapshotComponent("src", src)

	start := time.Now()
	cks, skips := sc.runCheckpointed(m)
	fmt.Fprintf(&b, "machine=%s sched=%s rate=%.0f/s service=%v workers=%d cpus=%d seed=%d simulated=%v (wall %v)\n",
		sc.machine, sc.sched, sc.rate, sc.service, sc.workers, sc.cpus, sc.seed, sc.dur, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(&b, "completed: %d (%.0f req/s)\n", rec.Completed, rec.Throughput(m.Now()))
	fmt.Fprintf(&b, "latency:   %s\n", rec.Hist.Percentiles())
	if sc.snapEvery > 0 {
		if err := sc.reportSnapshots(&b, m, cks, skips); err != nil {
			return b.String(), err
		}
	}

	if sc.metrics {
		fmt.Fprint(&b, m.Metrics())
	}
	if ck := m.Invariants(); ck != nil {
		ck.Finish(m.Now())
		if ck.Failed() {
			vs := ck.Violations()
			for _, v := range vs {
				fmt.Fprintf(&b, "invariant violation: %s\n", v)
			}
			return b.String(), fmt.Errorf("ghost-sim: %d invariant violations (repro: rerun with -seed %d)",
				len(vs), sc.seed)
		}
	}
	err := sc.writeTrace(&b, m)
	return b.String(), err
}

// writeTrace writes m's trace to the -trace file, if one was asked for,
// and names it in the report.
func (sc scenario) writeTrace(b *strings.Builder, m *ghost.Machine) error {
	if sc.traceOut == "" {
		return nil
	}
	f, err := os.Create(sc.traceOut)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := m.TraceTo(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(b, "trace:     %s (load at ui.perfetto.dev)\n", sc.traceOut)
	return nil
}

// runCheckpointed runs m to -dur of total simulated time. With
// -snapshot-every it stops at each multiple of the period after m's
// start instant, up to and including -dur, and snapshots there, so a
// restored run checkpoints at the same instants as the run it came from.
// It returns the checkpoints, oldest first, and the number of boundaries
// skipped because the machine was outside the snapshot envelope there.
func (sc scenario) runCheckpointed(m *ghost.Machine) (cks []*ghost.Snapshot, skips int) {
	end := sim.Time(sc.dur)
	if every := sim.Time(sc.snapEvery); every > 0 {
		for at := (m.Now()/every + 1) * every; at <= end; at += every {
			m.RunUntil(at)
			if s, err := m.Snapshot(); err == nil {
				cks = append(cks, s)
			} else {
				skips++
			}
		}
	}
	m.RunUntil(end)
	return cks, skips
}

// reportSnapshots writes the run's periodic checkpoints to .snap files
// and prints the machine's final-state digest, so two runs (or a run and
// its restore) can be compared byte-for-byte.
func (sc scenario) reportSnapshots(b *strings.Builder, m *ghost.Machine, cks []*ghost.Snapshot, skips int) error {
	if skips > 0 {
		fmt.Fprintf(b, "snapshots: %d boundaries skipped (machine outside the snapshot envelope)\n", skips)
	}
	for _, s := range cks {
		file := fmt.Sprintf("ghost-sim-seed%d-t%v.snap", sc.seed, s.Time())
		f, err := os.Create(file)
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if _, err := s.WriteTo(f); err != nil {
			f.Close()
			return fmt.Errorf("snapshot: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		fmt.Fprintf(b, "snapshot:  %s (digest %.12s)\n", file, s.Digest())
	}
	final, err := m.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: final state: %w", err)
	}
	fmt.Fprintf(b, "digest:    %s\n", final.Digest())
	return nil
}

// runRestored resumes a machine from a -restore .snap file and runs it
// to -dur of total simulated time. The scheduler, workload and topology
// all come from the snapshot; the workload flags are ignored. Online
// invariant checking stays off — the oracles need history from t=0.
func (sc scenario) runRestored() (string, error) {
	var b strings.Builder
	f, err := os.Open(sc.restore)
	if err != nil {
		return "", err
	}
	snapshot, err := ghost.ReadSnapshot(f)
	f.Close()
	if err != nil {
		return "", fmt.Errorf("%s: %w", sc.restore, err)
	}
	if sim.Time(sc.dur) <= snapshot.Time() {
		return "", fmt.Errorf("-dur %v is not past the snapshot time %v; nothing to simulate", sc.dur, snapshot.Time())
	}
	opts := []ghost.MachineOption{
		// The one closure a snapshot cannot carry: the Poisson source's
		// sink, re-wired to the restored worker pool.
		ghost.WithRestoredComponent("src", func(m *ghost.Machine) (ghost.SnapshotComponent, error) {
			pool, ok := m.SnapshotComponent("pool").(*ghost.WorkerPool)
			if !ok {
				return nil, fmt.Errorf("snapshot has no worker pool component")
			}
			return m.NewPoissonShell(func(r *ghost.Request) { pool.Submit(r) }), nil
		}),
	}
	if sc.traceOut != "" {
		opts = append(opts, ghost.WithTrace(ghost.NewTracer()))
	}
	m, err := ghost.Restore(snapshot, opts...)
	if err != nil {
		return "", fmt.Errorf("%s: %w", sc.restore, err)
	}
	defer m.Shutdown()

	start := time.Now()
	cks, skips := sc.runCheckpointed(m)
	fmt.Fprintf(&b, "restored=%s t0=%v seed=%d simulated to %v (wall %v)\n",
		sc.restore, snapshot.Time(), sc.seed, sc.dur, time.Since(start).Round(time.Millisecond))
	if pool, ok := m.SnapshotComponent("pool").(*ghost.WorkerPool); ok {
		rec := pool.Recorder()
		fmt.Fprintf(&b, "completed: %d (%.0f req/s)\n", rec.Completed, rec.Throughput(m.Now()))
		fmt.Fprintf(&b, "latency:   %s\n", rec.Hist.Percentiles())
	}
	if err := sc.reportSnapshots(&b, m, cks, skips); err != nil {
		return b.String(), err
	}
	if sc.metrics {
		fmt.Fprint(&b, m.Metrics())
	}
	err = sc.writeTrace(&b, m)
	return b.String(), err
}
