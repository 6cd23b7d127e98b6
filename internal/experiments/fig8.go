package experiments

import (
	"fmt"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Google Search benchmark, CFS vs ghOSt (Fig 8)",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig8-ablation",
		Title: "Search policy ablation: NUMA/CCX awareness (§4.4)",
		Run:   runFig8Ablation,
	})
}

// fig8Outcome summarises one scheduler's run: each query type's QPS
// (completions over the observation window) and its latency record.
type fig8Outcome struct {
	qps [3]float64
	tot [3]*workload.LatencyRecorder
}

// fig8Dur is the observation window (shortened under Quick; the load
// stays full — the contention is the experiment).
func fig8Dur(o Options) sim.Duration {
	if o.Quick {
		return 2 * sim.Second
	}
	return 60 * sim.Second
}

// fig8Run builds the Rome machine and Search workload under CFS or a
// ghOSt Search-policy variant (nil policy selects CFS) and runs it to
// completion.
func fig8Run(pol *policies.Search, o Options) fig8Outcome {
	topo := hw.AMDRome()
	m := newMachine(machineOpts{topo: topo})
	defer m.k.Shutdown()

	cfg := workload.DefaultSearchConfig()
	cfg.Seed = o.Seed + 13

	spawnServer := func(name string, body kernel.ThreadFunc) *kernel.Thread {
		return m.k.Spawn(kernel.SpawnOpts{Name: name, Class: m.cfs}, body)
	}
	var s *workload.Search
	if pol == nil {
		s = workload.NewSearch(m.k, cfg,
			func(name string, aff kernel.Mask, body kernel.ThreadFunc) *kernel.Thread {
				return m.k.Spawn(kernel.SpawnOpts{Name: name, Class: m.cfs, Affinity: aff}, body)
			}, spawnServer)
	} else {
		var cpus []hw.CPUID
		for i := 0; i < topo.NumCPUs(); i++ {
			cpus = append(cpus, hw.CPUID(i))
		}
		enc := m.enclaveOn(cpus...)
		m.startCentral(enc, pol)
		s = workload.NewSearch(m.k, cfg,
			func(name string, aff kernel.Mask, body kernel.ThreadFunc) *kernel.Thread {
				return enc.SpawnThread(kernel.SpawnOpts{Name: name, Affinity: aff}, body)
			}, spawnServer)
	}
	m.m.Run(fig8Dur(o))
	var out fig8Outcome
	for qt := 0; qt < 3; qt++ {
		out.qps[qt] = float64(s.Totals[qt].Completed) / fig8Dur(o).Seconds()
		out.tot[qt] = s.Totals[qt]
	}
	return out
}

func runFig8(o Options) *Report {
	rep := &Report{
		ID: "fig8", Title: "Search QPS and 99% latency (normalized to CFS)",
		Header: []string{"query", "metric", "CFS", "ghOSt", "ghOSt/CFS", "paper"},
	}
	outs := sweep(o, 2, func(i int) fig8Outcome {
		if i == 0 {
			return fig8Run(nil, o)
		}
		return fig8Run(policies.NewSearch(), o)
	})
	cfs, gho := outs[0], outs[1]
	paperQPS := [3]string{"~1.0x", "~1.0x", "~1.0x"}
	paperP99 := [3]string{"0.55-0.6x", "0.55-0.6x", "~1.0x"}
	for qt := 0; qt < 3; qt++ {
		name := string(rune('A' + qt))
		cq, gq := cfs.qps[qt], gho.qps[qt]
		rep.AddRow(name, "QPS", fmt.Sprintf("%.0f", cq), fmt.Sprintf("%.0f", gq),
			ratio(gq, cq), paperQPS[qt])
		cp := float64(cfs.tot[qt].Hist.P99())
		gp := float64(gho.tot[qt].Hist.P99())
		rep.AddRow(name, "p99(us)", fmt.Sprintf("%.0f", cp/1000), fmt.Sprintf("%.0f", gp/1000),
			ratio(gp, cp), paperP99[qt])
	}
	rep.Notef("expected shape (§4.4): comparable QPS; ghOSt ~40-50%% lower p99 for " +
		"types A and B (µs-scale rebalancing vs CFS's ms-scale), parity for type C")
	return rep
}

func ratio(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

// runFig8Ablation reruns the ghOSt Search policy with locality features
// toggled, reproducing §4.4's "NUMA and CCX optimizations delivered 27%
// and 10%" finding directionally.
func runFig8Ablation(o Options) *Report {
	rep := &Report{
		ID: "fig8-ablation", Title: "Search policy locality ablation",
		Header: []string{"variant", "A p99(us)", "B p99(us)", "C p99(us)", "A QPS"},
	}
	variants := []struct {
		name string
		mk   func() *policies.Search
	}{
		{"no-locality", func() *policies.Search {
			p := policies.NewSearch()
			p.NUMAAware, p.CCXAware = false, false
			return p
		}},
		{"numa-only", func() *policies.Search {
			p := policies.NewSearch()
			p.CCXAware = false
			return p
		}},
		{"numa+ccx", policies.NewSearch},
		{"numa+ccx+hold", func() *policies.Search {
			p := policies.NewSearch()
			p.HoldForCCX = 100 * sim.Microsecond
			return p
		}},
	}
	oq := o
	oq.Quick = true // ablation always runs at quick scale
	// The variants are independent machines: one job each.
	outs := sweep(o, len(variants), func(i int) fig8Outcome {
		return fig8Run(variants[i].mk(), oq)
	})
	for i, v := range variants {
		out := outs[i]
		rep.AddRow(v.name,
			fmt.Sprintf("%.0f", float64(out.tot[0].Hist.P99())/1000),
			fmt.Sprintf("%.0f", float64(out.tot[1].Hist.P99())/1000),
			fmt.Sprintf("%.0f", float64(out.tot[2].Hist.P99())/1000),
			fmt.Sprintf("%.0f", out.qps[0]))
	}
	rep.Notef("expected: each locality feature improves type A (memory-bound) the most")
	return rep
}
