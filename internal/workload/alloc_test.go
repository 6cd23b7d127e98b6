package workload

import (
	"runtime"
	"testing"

	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// A Search arrival allocates only its Request: each query type is a
// PoissonSource, whose arrival event is a pre-bound AfterCall record.
// The servers and workers are left unspawned, so arrivals only queue in
// the server mailboxes, which one consumer thread per mailbox drains.
func TestSearchArrivalAllocFree(t *testing.T) {
	eng, k, cfs := testKernel(t, 4)
	s := NewSearch(k, DefaultSearchConfig(),
		func(string, kernel.Mask, kernel.ThreadFunc) *kernel.Thread { return nil },
		func(string, kernel.ThreadFunc) *kernel.Thread { return nil })
	got := 0
	for _, mb := range s.servers {
		k.Spawn(kernel.SpawnOpts{Name: "drain", Class: cfs}, func(tc *kernel.TaskContext) {
			for {
				mb.Get(tc)
				got++
			}
		})
	}
	arrivals := 0
	run := func(n int) {
		start := got
		for got-start < n {
			eng.RunFor(sim.Microsecond)
		}
		arrivals = got - start
	}
	run(20000) // warm up
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(1000)
	runtime.ReadMemStats(&after)
	// One Request each, plus the odd growth step of the event queue
	// and mailbox buffers, which still reach a new high-water mark now
	// and then.
	if per := float64(after.Mallocs-before.Mallocs) / float64(arrivals); per > 1.05 {
		t.Fatalf("%d arrivals allocate %.3f times each, want 1 (the Request)", arrivals, per)
	}
}

// A Snap arrival allocates its Request and its packet and nothing else:
// each flow is a PoissonSource, whose arrival event is a pre-bound
// AfterCall record. The workers and servers are left unspawned, so
// arrivals only queue in the packet ring, which the test drains.
func TestSnapArrivalAllocFree(t *testing.T) {
	eng, k, _ := testKernel(t, 4)
	s := NewSnap(k, DefaultSnapConfig(),
		func(string, kernel.ThreadFunc) *kernel.Thread { return nil },
		func(string, kernel.ThreadFunc) *kernel.Thread { return nil })
	arrivals := 0
	run := func(n int) {
		for arrivals = 0; arrivals < n; {
			eng.RunFor(10 * sim.Microsecond)
			arrivals += len(s.pkts)
			s.pkts = s.pkts[:0]
		}
	}
	run(20000) // warm up
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(1000)
	runtime.ReadMemStats(&after)
	// A Request and a snapPkt each, plus the odd growth step of the
	// event queue.
	if per := float64(after.Mallocs-before.Mallocs) / float64(arrivals); per > 2.05 {
		t.Fatalf("%d arrivals allocate %.3f times each, want 2 (the Request and its packet)", arrivals, per)
	}
}

// BenchmarkWorkerPoolCycle measures one request's trip through a warm
// 8-worker CFS pool: Submit, serve, finish (one op = one request).
func BenchmarkWorkerPoolCycle(b *testing.B) {
	eng, k, cfs := testKernel(b, 8)
	pool := NewWorkerPool(k, 8, &LatencyRecorder{}, func(name string, body kernel.ThreadFunc) *kernel.Thread {
		return k.Spawn(kernel.SpawnOpts{Name: name, Class: cfs}, body)
	})
	done := false
	r := &Request{Service: 10 * sim.Microsecond, Done: func(*Request, sim.Time) { done = true }}
	cycle := func() {
		r.Arrival = eng.Now()
		done = false
		pool.Submit(r)
		for !done {
			eng.RunFor(sim.Microsecond)
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
