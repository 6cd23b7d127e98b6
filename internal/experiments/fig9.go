package experiments

import (
	"fmt"

	"ghost"
	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/stats"
	"ghost/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Agent upgrade/crash robustness under load (§3.4)",
		Run:   runFig9,
	})
}

// fig9Mode selects the disruption under test.
type fig9Mode int

const (
	// fig9Upgrades performs back-to-back agent upgrades: each forced
	// upgrade stops the running generation and hands the enclave to a
	// fresh policy instance (the paper's 1000-upgrade soak, scaled).
	fig9Upgrades fig9Mode = iota
	// fig9Crash kills the agents with no successor; the enclave must
	// fall back to CFS instead of stranding its threads.
	fig9Crash
	// fig9FailedUpgrade announces an upgrade whose successor never
	// attaches; the bounded upgrade timeout must re-arm the fallback.
	fig9FailedUpgrade
)

func (m fig9Mode) String() string {
	switch m {
	case fig9Upgrades:
		return "upgrades"
	case fig9Crash:
		return "crash"
	default:
		return "failed-upgrade"
	}
}

// fig9SLO is the deadline for short (non-dispersive) requests; under
// healthy scheduling a ~10 µs request finishes orders of magnitude
// sooner, so misses count scheduling outages, not service time.
const fig9SLO = 2 * sim.Millisecond

// fig9Result is the outcome of one disruption run.
type fig9Result struct {
	events         int
	handoff        stats.Histogram
	missedShort    uint64
	completedShort uint64
	steady         stats.Histogram
	disrupt        stats.Histogram
	fallbackAt     sim.Time // 0 = enclave survived
	end            sim.Time
	destroyedFor   string
}

// fig9Run drives Shinjuku-style load (§4.2: RocksDB bimodal service on
// 20 worker CPUs plus a global agent) through one disruption mode.
func fig9Run(mode fig9Mode, o Options) *fig9Result {
	topo := hw.XeonE5()
	const nWorkCPUs = 20
	const rate = 150_000.0
	dur := 2400 * sim.Millisecond
	warm := sim.Time(300 * sim.Millisecond)
	spacing := 40 * sim.Millisecond
	nUpgrades := 50
	if o.Quick {
		dur = 600 * sim.Millisecond
		warm = sim.Time(100 * sim.Millisecond)
		nUpgrades = 10
	}

	// The fault plan is the experiment's disruption schedule; the
	// failed-upgrade mode injects nothing and instead stops the agent
	// generation directly (no successor exists to attach).
	plan := ghost.NewFaultPlan(o.Seed + 9)
	var upgradeTimes []sim.Time
	crashT := warm + (sim.Time(dur)-warm)/2
	switch mode {
	case fig9Upgrades:
		for i := 0; i < nUpgrades; i++ {
			t := warm + sim.Time(i)*sim.Time(spacing)
			plan.Upgrade(t)
			upgradeTimes = append(upgradeTimes, t)
		}
	case fig9Crash:
		plan.Crash(crashT)
	}

	m := newMachine(machineOpts{topo: topo, extra: []ghost.MachineOption{ghost.WithFaults(plan)}})
	defer m.k.Shutdown()

	cpus := []hw.CPUID{0}
	for i := 1; i <= nWorkCPUs; i++ {
		cpus = append(cpus, hw.CPUID(i))
	}
	enc := m.enclaveOn(cpus...)
	set := m.startCentral(enc, policies.NewShinjuku(),
		agentsdk.WithUpgradePolicy(func() any { return policies.NewShinjuku() }))

	res := &fig9Result{events: len(upgradeTimes)}
	if mode != fig9Upgrades {
		res.events = 1
	}

	// Disruption windows: a few ms after each upgrade; everything after
	// the crash/failed upgrade (the CFS-degraded regime).
	inDisrupt := func(t sim.Time) bool {
		if mode != fig9Upgrades {
			return t >= crashT
		}
		for _, u := range upgradeTimes {
			if t >= u && t < u+sim.Time(5*sim.Millisecond) {
				return true
			}
		}
		return false
	}

	rec := &workload.LatencyRecorder{WarmupUntil: warm}
	// Workers are pinned to the enclave CPUs so that after a CFS
	// fallback they compete for the same cores the agent managed.
	mask := kernel.MaskOf(cpus...)
	pool := workload.NewWorkerPool(m.k, 200, rec, func(name string, body kernel.ThreadFunc) *kernel.Thread {
		return enc.SpawnThread(kernel.SpawnOpts{Name: name, Affinity: mask}, body)
	})
	sink := func(r *workload.Request) {
		r.Done = func(r *workload.Request, done sim.Time) {
			if r.Arrival < warm {
				return
			}
			lat := done - r.Arrival
			if r.Service < sim.Millisecond {
				res.completedShort++
				if lat > fig9SLO {
					res.missedShort++
				}
			}
			if inDisrupt(r.Arrival) {
				res.disrupt.Record(lat)
			} else {
				res.steady.Record(lat)
			}
		}
		pool.Submit(r)
	}
	workload.NewPoissonSource(m.eng, sim.NewRand(o.Seed+77), rate,
		workload.RocksDBService(), sink)

	// Handoff latency: time from the forced upgrade to the successor
	// generation's first committed transaction. The injector's events
	// predate these samplers, so at time t the upgrade has already
	// fired and TxnsOK counts only the old generations.
	for _, t := range upgradeTimes {
		t := t
		m.eng.At(t, func() {
			base := m.g.TxnsOK
			deadline := t + sim.Time(50*sim.Millisecond)
			var poll func()
			poll = func() {
				if m.g.TxnsOK > base {
					res.handoff.Record(m.eng.Now() - t)
					return
				}
				if m.eng.Now() < deadline {
					m.eng.After(2*sim.Microsecond, poll)
				}
			}
			poll()
		})
	}

	if mode == fig9FailedUpgrade {
		m.eng.At(crashT, func() { set.Stop() })
	}

	// Record when (if ever) the enclave fell back to CFS.
	m.g.AddObserver(fig9Fallback{m.eng, res})

	m.m.Run(dur)
	res.end = m.eng.Now()
	return res
}

// fig9Fallback records the instant the enclave fell back to CFS, and why.
type fig9Fallback struct {
	eng *sim.Engine
	res *fig9Result
}

func (f fig9Fallback) Destroyed(_ *ghostcore.Enclave, cause error, _ []*kernel.Thread) {
	f.res.fallbackAt, f.res.destroyedFor = f.eng.Now(), cause.Error()
}

func runFig9(o Options) *Report {
	rep := &Report{
		ID:    "fig9",
		Title: "ghOSt robustness: 50 agent upgrades, crash, failed upgrade (§3.4)",
		Header: []string{"run", "events", "handoff p50(us)", "handoff p99(us)",
			"missed SLO", "cfs fallback(ms)", "p99 steady(us)", "p99 disrupt(us)"},
	}
	modes := []fig9Mode{fig9Upgrades, fig9Crash, fig9FailedUpgrade}
	results := sweep(o, len(modes), func(i int) *fig9Result {
		return fig9Run(modes[i], o)
	})
	for i, mode := range modes {
		r := results[i]
		handoff50, handoff99 := "-", "-"
		if r.handoff.Count() > 0 {
			handoff50, handoff99 = us(r.handoff.P50()), us(r.handoff.P99())
		}
		fallback := "-"
		if r.fallbackAt > 0 {
			fallback = fmt.Sprintf("%.1f", float64(r.end-r.fallbackAt)/float64(sim.Millisecond))
		}
		rep.AddRow(mode.String(), fmt.Sprintf("%d", r.events), handoff50, handoff99,
			fmt.Sprintf("%d/%d", r.missedShort, r.completedShort),
			fallback, us(r.steady.P99()), us(r.disrupt.P99()))
		if r.destroyedFor != "" {
			rep.Notef("%s: enclave destroyed (%q); threads completed under CFS", mode, r.destroyedFor)
		}
	}
	rep.Notef("expected shape (§3.4): upgrades hand off in microseconds and disturb " +
		"tails for at most a few ms; a crash (or an upgrade whose successor never " +
		"attaches) degrades to CFS scheduling rather than hanging the workload")
	return rep
}
