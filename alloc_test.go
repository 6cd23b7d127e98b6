package ghost_test

import (
	"runtime"
	"testing"

	"ghost"
	"ghost/internal/workload"
)

// The whole-machine allocation budget: on the three ghost-perf machine
// workloads (cmd/ghost-perf), a warm machine makes at most 0.15 heap
// allocations per engine event. Almost all of what is left is the one
// Request per arrival. A new per-event allocation anywhere on the hot
// path breaks the budget here, in the tier-1 suite.
func TestAllocBudget(t *testing.T) {
	const budget = 0.15
	for _, tc := range []struct {
		name  string
		build func() *ghost.Machine
	}{
		{"shinjuku-rocksdb", budgetShinjuku},
		{"search-ghost", func() *ghost.Machine { return budgetSearch(true) }},
		{"search-cfs", func() *ghost.Machine { return budgetSearch(false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build()
			defer m.Shutdown()
			m.Run(10 * ghost.Millisecond)
			eng := m.Kernel().Engine()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ev0 := eng.Executed
			m.Run(5 * ghost.Millisecond)
			events := eng.Executed - ev0
			runtime.ReadMemStats(&after)
			mallocs := after.Mallocs - before.Mallocs
			per := float64(mallocs) / float64(events)
			t.Logf("%d mallocs over %d events: %.3f per event", mallocs, events, per)
			if events == 0 || per > budget {
				t.Fatalf("%.3f heap allocations per engine event (%d over %d), budget %.2f",
					per, mallocs, events, budget)
			}
		})
	}
}

// budgetShinjuku mirrors ghost-perf's shinjuku-rocksdb setup: XeonE5, a
// 21-CPU enclave under the global Shinjuku agent, 200 pool workers and
// a 280k req/s Poisson source with the RocksDB mix.
func budgetShinjuku() *ghost.Machine {
	m := ghost.NewMachine(ghost.XeonE5())
	enc := m.NewEnclave(ghost.MaskAll(21))
	m.StartAgents(enc, ghost.NewShinjukuPolicy(), ghost.Global())
	pool := m.NewWorkerPool(200, &ghost.LatencyRecorder{}, func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name, Class: ghost.Ghost(enc)}, body)
	})
	m.NewPoissonSource(ghost.NewRand(1), 280_000, ghost.RocksDBService(), pool.Submit)
	return m
}

// budgetSearch mirrors ghost-perf's search-ghost (ghostSched) and
// search-cfs setups: AMD Rome with the default Search load, its workers
// in a whole-machine Search enclave or under CFS.
func budgetSearch(ghostSched bool) *ghost.Machine {
	m := ghost.NewMachine(ghost.AMDRome())
	class := ghost.CFS
	if ghostSched {
		enc := m.NewEnclave(m.AllCPUs())
		m.StartAgents(enc, ghost.NewSearchPolicy(), ghost.Global())
		class = ghost.Ghost(enc)
	}
	cfg := workload.DefaultSearchConfig()
	cfg.Seed = 1
	workload.NewSearch(m.Kernel(), cfg,
		func(name string, aff ghost.CPUMask, body ghost.ThreadFunc) *ghost.Thread {
			return m.Spawn(ghost.ThreadOpts{Name: name, Affinity: aff, Class: class}, body)
		},
		func(name string, body ghost.ThreadFunc) *ghost.Thread {
			return m.Spawn(ghost.ThreadOpts{Name: name}, body)
		})
	return m
}

// The hot workload bodies — Search's servers and pool workers and the
// WorkerPool's workers — are kernel.Steps machines, not coroutines: the
// ghost-perf machines hold no goroutine per thread. Their agents are
// Steps machines too, so only a small constant of goroutines may appear.
func TestHotBodiesKeepNoCoroutine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *ghost.Machine
	}{
		{"shinjuku-rocksdb", budgetShinjuku},
		{"search-ghost", func() *ghost.Machine { return budgetSearch(true) }},
		{"search-cfs", func() *ghost.Machine { return budgetSearch(false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := tc.build()
			defer m.Shutdown()
			m.Run(ghost.Millisecond)
			if n := runtime.NumGoroutine(); n > base+2 {
				t.Fatalf("%d goroutines after 1 ms, %d before the build", n, base)
			}
		})
	}
}
