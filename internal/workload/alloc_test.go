package workload

import (
	"runtime"
	"testing"

	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// A Search arrival allocates only its Request: the arrival event is a
// pre-bound AfterCall record per query type, not a closure per query.
// The servers and workers are left unspawned, so arrivals only queue in
// the server mailboxes, which the test drains.
func TestSearchArrivalAllocFree(t *testing.T) {
	eng, k, _ := testKernel(t, 4)
	s := NewSearch(k, DefaultSearchConfig(),
		func(string, kernel.Mask, kernel.ThreadFunc) *kernel.Thread { return nil },
		func(string, kernel.ThreadFunc) *kernel.Thread { return nil })
	drain := func() (n int) {
		for _, mb := range s.servers {
			for _, ok := mb.TryGet(); ok; _, ok = mb.TryGet() {
				n++
			}
		}
		return n
	}
	arrivals := 0
	run := func(n int) {
		for arrivals = 0; arrivals < n; {
			eng.RunFor(sim.Microsecond)
			arrivals += drain()
		}
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
