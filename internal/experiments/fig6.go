package experiments

import (
	"fmt"

	"ghost/internal/baselines"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

func init() {
	register(Experiment{ID: "fig6a", Title: "Shinjuku comparison: tail latency vs load (Fig 6a)",
		Run: func(o Options) *Report { return runFig6(o, false) }})
	register(Experiment{ID: "fig6b", Title: "Shinjuku comparison with batch app (Fig 6b)",
		Run: func(o Options) *Report { return runFig6(o, true) }})
	register(Experiment{ID: "fig6c", Title: "Batch CPU share (Fig 6c)",
		Run: runFig6c})
}

// fig6System identifies the three systems under comparison (§4.2).
type fig6System int

const (
	sysShinjuku fig6System = iota // original dedicated data plane
	sysGhost                      // ghOSt-Shinjuku (centralized, preemptive)
	sysCFS                        // CFS-Shinjuku (non-preemptive)
)

func (s fig6System) String() string {
	switch s {
	case sysShinjuku:
		return "shinjuku"
	case sysGhost:
		return "ghost-shinjuku"
	default:
		return "cfs-shinjuku"
	}
}

// fig6Result is one (system, load) measurement.
type fig6Result struct {
	p99        sim.Duration
	throughput float64
	batchShare float64
}

// fig6Run runs one system at one offered load for the experiment
// duration, optionally co-locating a batch app, and reports p99 latency,
// achieved throughput, and the batch app's CPU share.
func fig6Run(sys fig6System, rate float64, withBatch bool, o Options) fig6Result {
	topo := hw.XeonE5() // §4.2 machine; experiments use one socket
	const nWorkCPUs = 20
	dur := 2 * sim.Second
	warm := 300 * sim.Millisecond
	if o.Quick {
		dur = 500 * sim.Millisecond
		warm = 100 * sim.Millisecond
	}

	m := newMachine(machineOpts{topo: topo})
	defer m.k.Shutdown()
	rec := &workload.LatencyRecorder{WarmupUntil: warm}
	svc := workload.RocksDBService()
	rnd := sim.NewRand(o.Seed + uint64(sys)*97 + uint64(rate))

	// CPUs 1..20 serve requests; CPU 0 hosts the dispatcher/agent.
	var workCPUs []hw.CPUID
	for i := 1; i <= nWorkCPUs; i++ {
		workCPUs = append(workCPUs, hw.CPUID(i))
	}
	var batch []*kernel.Thread
	spawnBatchCFS := func(n int, mask kernel.Mask) {
		for i := 0; i < n; i++ {
			batch = append(batch, m.k.Spawn(kernel.SpawnOpts{
				Name: "batch", Class: m.cfs, Affinity: mask, Nice: 19,
			}, workload.Spinner(50*sim.Microsecond)))
		}
	}

	switch sys {
	case sysShinjuku:
		dp := baselines.NewShinjukuDataplane(m.k, m.ac, 0, workCPUs, rec)
		workload.NewPoissonSource(m.eng, rnd, rate, svc, dp.Submit)
		if withBatch {
			spawnBatchCFS(10, kernel.MaskOf(append(workCPUs, 0)...))
		}
	case sysGhost:
		enc := m.enclaveOn(append([]hw.CPUID{0}, workCPUs...)...)
		var pol *policies.Shinjuku
		if withBatch {
			pol = policies.NewShinjukuShenango(func(t *kernel.Thread) bool {
				return t.Name() == "batch"
			})
		} else {
			pol = policies.NewShinjuku()
		}
		m.startCentral(enc, pol)
		pool := workload.NewWorkerPool(m.k, 200, rec, func(name string, body kernel.ThreadFunc) *kernel.Thread {
			return enc.SpawnThread(kernel.SpawnOpts{Name: name}, body)
		})
		workload.NewPoissonSource(m.eng, rnd, rate, svc, pool.Submit)
		if withBatch {
			for i := 0; i < 10; i++ {
				batch = append(batch, enc.SpawnThread(kernel.SpawnOpts{Name: "batch"},
					workload.Spinner(50*sim.Microsecond)))
			}
		}
	case sysCFS:
		pool := workload.NewWorkerPool(m.k, nWorkCPUs, rec, func(name string, body kernel.ThreadFunc) *kernel.Thread {
			return m.k.Spawn(kernel.SpawnOpts{Name: name, Class: m.cfs,
				Affinity: kernel.MaskOf(workCPUs...), Nice: -20}, body)
		})
		workload.NewPoissonSource(m.eng, rnd, rate, svc, pool.Submit)
		if withBatch {
			spawnBatchCFS(10, kernel.MaskOf(append(workCPUs, 0)...))
		}
	}

	m.m.Run(dur)
	res := fig6Result{
		p99:        rec.Hist.P99(),
		throughput: rec.Throughput(m.eng.Now()),
	}
	if withBatch {
		var bt sim.Duration
		for _, b := range batch {
			bt += b.CPUTime()
		}
		capacity := float64(dur) * float64(nWorkCPUs)
		res.batchShare = float64(bt) / capacity
	}
	return res
}

// fig6Loads is the offered-load sweep (requests/second).
func fig6Loads(quick bool) []float64 {
	if quick {
		return []float64{50_000, 150_000, 250_000}
	}
	return []float64{25_000, 50_000, 100_000, 150_000, 200_000, 250_000, 280_000, 300_000, 320_000}
}

func runFig6(o Options, withBatch bool) *Report {
	id := "fig6a"
	if withBatch {
		id = "fig6b"
	}
	rep := &Report{
		ID: id, Title: "RocksDB 99% latency vs throughput",
		Header: []string{"system", "offered(kreq/s)", "achieved(kreq/s)", "p99(us)"},
	}
	cases, results := fig6Sweep(o, withBatch)
	for i, c := range cases {
		r := results[i]
		rep.AddRow(c.sys.String(), fmt.Sprintf("%.0f", c.rate/1000),
			fmt.Sprintf("%.0f", r.throughput/1000), us(r.p99))
	}
	rep.Notef("expected shape: ghOSt-Shinjuku within ~5%% of Shinjuku's saturation " +
		"and p99; CFS-Shinjuku saturates ~30%% sooner (no preemption)")
	return rep
}

// fig6Case is one (system, offered load) cell of the Fig 6 sweep.
type fig6Case struct {
	sys  fig6System
	rate float64
}

// fig6Sweep runs the full system × load grid as independent jobs and
// returns cases and results in row order.
func fig6Sweep(o Options, withBatch bool) ([]fig6Case, []fig6Result) {
	var cases []fig6Case
	for _, sys := range []fig6System{sysShinjuku, sysGhost, sysCFS} {
		for _, rate := range fig6Loads(o.Quick) {
			cases = append(cases, fig6Case{sys, rate})
		}
	}
	results := sweep(o, len(cases), func(i int) fig6Result {
		return fig6Run(cases[i].sys, cases[i].rate, withBatch, o)
	})
	return cases, results
}

func runFig6c(o Options) *Report {
	rep := &Report{
		ID: "fig6c", Title: "Batch CPU share vs RocksDB load",
		Header: []string{"system", "offered(kreq/s)", "batch share"},
	}
	cases, results := fig6Sweep(o, true)
	for i, c := range cases {
		rep.AddRow(c.sys.String(), fmt.Sprintf("%.0f", c.rate/1000), fmt.Sprintf("%.2f", results[i].batchShare))
	}
	rep.Notef("expected shape: Shinjuku's dedicated cores give the batch app zero " +
		"share at any load; ghOSt shares idle cycles, tapering as load grows")
	return rep
}
