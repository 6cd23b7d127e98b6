package ghost_test

// One benchmark per table and figure of the paper's evaluation (§4).
// Each bench runs the corresponding experiment end-to-end on simulated
// time and reports domain metrics (latencies, rates) alongside wall
// time, so `go test -bench .` regenerates every result:
//
//	go test -bench BenchmarkFig6a -benchtime 1x
//
// The full tables are printed by cmd/ghost-bench; benches use quick
// experiment sizing to keep -bench . tractable.

import (
	"strconv"
	"strings"
	"testing"

	"ghost"
	"ghost/internal/experiments"
)

// Parallel is left 0 so each experiment spreads its independent sweep
// points over GOMAXPROCS workers; reports stay byte-identical to serial.
var benchOpts = experiments.Options{Quick: true, Seed: 1}

// runExp runs experiment id once per bench iteration and stores a few
// headline cells as bench metrics.
func runExp(b *testing.B, id string, metrics func(rep *experiments.Report, b *testing.B)) {
	b.Helper()
	e := experiments.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = e.Run(benchOpts)
	}
	if metrics != nil && rep != nil {
		metrics(rep, b)
	}
}

// cellF parses a numeric cell ("12.34", "0.96x") from a report.
func cellF(rep *experiments.Report, row, col int) float64 {
	v, _ := strconv.ParseFloat(strings.TrimSuffix(rep.Rows[row][col], "x"), 64)
	return v
}

func BenchmarkTable2LinesOfCode(b *testing.B) {
	runExp(b, "table2", nil)
}

func BenchmarkTable3Microbenchmarks(b *testing.B) {
	runExp(b, "table3", func(rep *experiments.Report, b *testing.B) {
		b.ReportMetric(cellF(rep, 0, 3), "ns/local-delivery")
		b.ReportMetric(cellF(rep, 1, 3), "ns/global-delivery")
		b.ReportMetric(cellF(rep, 5, 3), "ns/remote-e2e")
	})
}

func BenchmarkFig5GlobalAgentScalability(b *testing.B) {
	runExp(b, "fig5", func(rep *experiments.Report, b *testing.B) {
		b.ReportMetric(rep.Series[0].Max()/1e6, "Mtxns/s-peak")
	})
}

func BenchmarkFig6aShinjukuLatency(b *testing.B) {
	runExp(b, "fig6a", func(rep *experiments.Report, b *testing.B) {
		loads := 3 // quick sweep size
		b.ReportMetric(cellF(rep, 0*loads+loads-1, 3), "us/p99-shinjuku")
		b.ReportMetric(cellF(rep, 1*loads+loads-1, 3), "us/p99-ghost")
		b.ReportMetric(cellF(rep, 2*loads+loads-1, 3), "us/p99-cfs")
	})
}

func BenchmarkFig6bShinjukuWithBatch(b *testing.B) {
	runExp(b, "fig6b", nil)
}

func BenchmarkFig6cBatchShare(b *testing.B) {
	runExp(b, "fig6c", func(rep *experiments.Report, b *testing.B) {
		b.ReportMetric(cellF(rep, 3, 2), "share/ghost-lowload")
	})
}

func BenchmarkFig7aSnapQuiet(b *testing.B) {
	runExp(b, "fig7a", func(rep *experiments.Report, b *testing.B) {
		b.ReportMetric(cellF(rep, 0, 2), "us/p50-mq-64B")
		b.ReportMetric(cellF(rep, 2, 2), "us/p50-ghost-64B")
	})
}

func BenchmarkFig7bSnapLoaded(b *testing.B) {
	runExp(b, "fig7b", nil)
}

func BenchmarkFig8Search(b *testing.B) {
	runExp(b, "fig8", func(rep *experiments.Report, b *testing.B) {
		b.ReportMetric(cellF(rep, 1, 4), "x/p99-ratio-A")
		b.ReportMetric(cellF(rep, 3, 4), "x/p99-ratio-B")
		b.ReportMetric(cellF(rep, 5, 4), "x/p99-ratio-C")
	})
}

func BenchmarkFig8Ablation(b *testing.B) {
	runExp(b, "fig8-ablation", nil)
}

func BenchmarkTable4SecureVM(b *testing.B) {
	runExp(b, "table4", func(rep *experiments.Report, b *testing.B) {
		b.ReportMetric(cellF(rep, 1, 1), "rate/kernel-cs")
		b.ReportMetric(cellF(rep, 2, 1), "rate/ghost-cs")
	})
}

func BenchmarkGroupCommitSweep(b *testing.B) {
	runExp(b, "group-commit", nil)
}

// benchFullSweep runs a representative slice of the evaluation (the
// multi-point sweeps) at the given parallelism. Comparing the Serial and
// Parallel variants measures the wall-time win of the experiment runner.
func benchFullSweep(b *testing.B, parallel int) {
	b.Helper()
	opts := experiments.Options{Quick: true, Seed: 1, Parallel: parallel}
	for i := 0; i < b.N; i++ {
		for _, id := range []string{"fig5", "table3", "group-commit"} {
			experiments.ByID(id).Run(opts)
		}
	}
}

func BenchmarkFullSweepSerial(b *testing.B)   { benchFullSweep(b, 1) }
func BenchmarkFullSweepParallel(b *testing.B) { benchFullSweep(b, 0) }

func BenchmarkBPFFastpath(b *testing.B) {
	runExp(b, "bpf-fastpath", nil)
}

// traceOverheadRun is the workload for the tracer-overhead benchmarks:
// a centralized FIFO enclave with blocking workers, heavy on messages,
// transactions and context switches.
func traceOverheadRun(b *testing.B, opts ...ghost.MachineOption) {
	b.Helper()
	topo := ghost.NewTopology(ghost.TopologyConfig{
		Name: "bench", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 8, SMTWidth: 1,
	})
	m := ghost.NewMachine(topo, opts...)
	defer m.Shutdown()
	enc := m.NewEnclave(ghost.MaskOf(1, 2, 3, 4, 5, 6, 7))
	m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())
	for i := 0; i < 16; i++ {
		m.Spawn(ghost.ThreadOpts{Name: "w", Class: ghost.Ghost(enc)}, func(tc *ghost.Task) {
			for {
				tc.Run(5 * ghost.Microsecond)
				tc.Sleep(10 * ghost.Microsecond)
			}
		})
	}
	m.Run(5 * ghost.Millisecond)
}

// The tracer must cost nothing when not attached: compare
// BenchmarkTraceOverheadOff (no tracer at all) with
// BenchmarkTraceOverheadMetrics (the default, counters only) and
// BenchmarkTraceOverheadFull (WithTrace, full event recording). The
// acceptance bar is Metrics within 2% of Off.
func BenchmarkTraceOverheadOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		traceOverheadRun(b, ghost.WithoutMetrics())
	}
}

func BenchmarkTraceOverheadMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		traceOverheadRun(b)
	}
}

func BenchmarkTraceOverheadFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		traceOverheadRun(b, ghost.WithTrace(ghost.NewTracer()))
	}
}
