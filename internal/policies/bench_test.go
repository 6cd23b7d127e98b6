package policies_test

import (
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

// scheduleCounter counts the global agent's Schedule calls.
type scheduleCounter struct {
	agentsdk.GlobalPolicy
	calls int
}

func (c *scheduleCounter) Schedule(ctx *agentsdk.Context) []agentsdk.Assignment {
	c.calls++
	return c.GlobalPolicy.Schedule(ctx)
}

// BenchmarkSearchSchedule measures global-agent steps of the §4.4 Search
// setup (ghost-perf's search-ghost workload): the Search policy over all
// 256 CPUs of AMDRome, fed by the default Search traffic. One op is one
// Schedule call plus the simulation leading up to it, on a machine
// warmed up for 20 ms first.
func BenchmarkSearchSchedule(b *testing.B) {
	topo := hw.AMDRome()
	e := newEnv(b, topo, kernel.MaskAll(topo.NumCPUs()))
	pol := &scheduleCounter{GlobalPolicy: policies.NewSearch()}
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())
	cfg := workload.DefaultSearchConfig()
	cfg.Seed = 1
	workload.NewSearch(e.k, cfg,
		func(name string, aff kernel.Mask, body kernel.ThreadFunc) *kernel.Thread {
			return e.enc.SpawnThread(kernel.SpawnOpts{Name: name, Affinity: aff}, body)
		},
		func(name string, body kernel.ThreadFunc) *kernel.Thread {
			return e.k.Spawn(kernel.SpawnOpts{Name: name, Class: e.cfs}, body)
		})
	e.eng.RunFor(20 * sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for start := pol.calls; pol.calls-start < b.N; {
		e.eng.RunFor(sim.Microsecond)
	}
}

// BenchmarkShinjukuSchedule measures global-agent steps of the §4.2
// Shinjuku setup (ghost-perf's shinjuku-rocksdb workload): the Shinjuku
// policy on a 21-CPU enclave of XeonE5, 200 pool workers, and 280k
// req/s of the RocksDB request mix. One op is one Schedule call plus
// the simulation leading up to it, on a machine warmed up for 20 ms
// first.
func BenchmarkShinjukuSchedule(b *testing.B) {
	e := newEnv(b, hw.XeonE5(), kernel.MaskAll(21))
	pol := &scheduleCounter{GlobalPolicy: policies.NewShinjuku()}
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())
	pool := workload.NewWorkerPool(e.k, 200, &workload.LatencyRecorder{}, func(name string, body kernel.ThreadFunc) *kernel.Thread {
		return e.enc.SpawnThread(kernel.SpawnOpts{Name: name}, body)
	})
	workload.NewPoissonSource(e.eng, sim.NewRand(1), 280_000, workload.RocksDBService(), pool.Submit)
	e.eng.RunFor(20 * sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for start := pol.calls; pol.calls-start < b.N; {
		e.eng.RunFor(sim.Microsecond)
	}
}
