package ghost_test

// Tracer-overhead benchmarks. The paper's tables and figures are
// regenerated by cmd/ghost-bench (`ghost-bench -exp <id>`), and the
// simulator's end-to-end speed is measured by cmd/ghost-perf.

import (
	"testing"

	"ghost"
)

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
