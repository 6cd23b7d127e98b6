package workload

import (
	"math"
	"testing"
	"testing/quick"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

func testKernel(t testing.TB, cpus int) (*sim.Engine, *kernel.Kernel, *kernel.CFS) {
	t.Helper()
	topo := hw.NewTopology(hw.Config{Name: "w", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: cpus / 2, SMTWidth: 2})
	eng := sim.NewEngine()
	k := kernel.New(eng, topo, hw.DefaultCostModel())
	cfs := kernel.NewCFS(k)
	t.Cleanup(k.Shutdown)
	return eng, k, cfs
}

func TestPoissonRate(t *testing.T) {
	eng := sim.NewEngine()
	n := 0
	NewPoissonSource(eng, sim.NewRand(1), 100000, Fixed(0), func(r *Request) { n++ })
	eng.RunFor(sim.Second)
	if n < 97000 || n > 103000 {
		t.Fatalf("arrivals in 1s = %d, want ~100000", n)
	}
}

func TestPoissonStop(t *testing.T) {
	eng := sim.NewEngine()
	n := 0
	p := NewPoissonSource(eng, sim.NewRand(1), 10000, Fixed(0), func(r *Request) { n++ })
	p.Until = sim.Time(100 * sim.Millisecond)
	eng.RunFor(100 * sim.Millisecond)
	before := n
	eng.RunFor(100 * sim.Millisecond)
	if before == 0 || n != before {
		t.Fatalf("%d arrivals by Until, %d after it", before, n-before)
	}
}

func TestBimodalStats(t *testing.T) {
	b := RocksDBService()
	r := sim.NewRand(3)
	long := 0
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		s := b.Sample(r)
		sum += float64(s)
		if s > sim.Millisecond {
			long++
		}
	}
	frac := float64(long) / n
	if frac < 0.004 || frac > 0.006 {
		t.Fatalf("long fraction = %.4f, want ~0.005", frac)
	}
	mean := sum / n
	want := float64(b.Long)*b.PLong + float64(b.Short)*(1-b.PLong)
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("sampled mean %v vs analytic %v", sim.Duration(mean), sim.Duration(want))
	}
}

// TestServiceDistMeans checks that Fixed and Exponential draw service
// times whose mean is their parameter. Durations start at 1 µs, so the
// whole-nanosecond truncation of Exponential's draws stays far below
// the 5% tolerance.
func TestServiceDistMeans(t *testing.T) {
	f := func(raw uint16) bool {
		d := sim.Duration(raw) + sim.Microsecond
		r := sim.NewRand(uint64(raw))
		if Fixed(d).Sample(r) != d {
			return false
		}
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(Exponential(d).Sample(r))
		}
		return math.Abs(sum/n-float64(d))/float64(d) < 0.05
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerPoolServesRequests(t *testing.T) {
	eng, k, cfs := testKernel(t, 4)
	rec := &LatencyRecorder{}
	pool := NewWorkerPool(k, 4, rec, func(name string, body kernel.ThreadFunc) *kernel.Thread {
		return k.Spawn(kernel.SpawnOpts{Name: name, Class: cfs}, body)
	})
	NewPoissonSource(eng, sim.NewRand(2), 50000, Fixed(10*sim.Microsecond), pool.Submit)
	eng.RunFor(100 * sim.Millisecond)
	// 50k req/s * 0.1s = ~5000 requests.
	if rec.Completed < 4500 {
		t.Fatalf("completed = %d, want ~5000", rec.Completed)
	}
	// 4 CPUs at 50% utilization: p50 latency should be tens of µs.
	if p50 := rec.Hist.P50(); p50 > 100*sim.Microsecond {
		t.Fatalf("p50 = %v, too slow", p50)
	}
	if thr := rec.Throughput(eng.Now()); thr < 45000 {
		t.Fatalf("throughput = %.0f", thr)
	}
}

func TestWorkerPoolBacklog(t *testing.T) {
	eng, k, cfs := testKernel(t, 4)
	rec := &LatencyRecorder{}
	pool := NewWorkerPool(k, 1, rec, func(name string, body kernel.ThreadFunc) *kernel.Thread {
		return k.Spawn(kernel.SpawnOpts{Name: name, Class: cfs, Affinity: kernel.MaskOf(0)}, body)
	})
	// Burst of 10 requests at once into a single worker: nine wait in
	// the backlog and are served one after another, in arrival order.
	var order []uint64
	var last sim.Time
	for i := 0; i < 10; i++ {
		pool.Submit(&Request{ID: uint64(i), Arrival: eng.Now(), Service: 10 * sim.Microsecond,
			Done: func(r *Request, at sim.Time) {
				if len(order) > 0 && at-last < 10*sim.Microsecond {
					t.Errorf("request %d done %v after the previous one, under its service time", r.ID, at-last)
				}
				order = append(order, r.ID)
				last = at
			}})
	}
	eng.RunFor(10 * sim.Millisecond)
	if rec.Completed != 10 {
		t.Fatalf("completed = %d, want 10", rec.Completed)
	}
	for i, id := range order {
		if id != uint64(i) {
			t.Fatalf("completion order %v, want arrival order", order)
		}
	}
}

func TestWarmupDiscards(t *testing.T) {
	rec := &LatencyRecorder{WarmupUntil: 100}
	rec.Record(&Request{Arrival: 50}, 60)
	rec.Record(&Request{Arrival: 150}, 170)
	if rec.Completed != 1 || rec.Hist.Count() != 1 {
		t.Fatalf("warmup not applied: %d", rec.Completed)
	}
}

func TestSnapEndToEnd(t *testing.T) {
	eng, k, cfs := testKernel(t, 8)
	cfg := DefaultSnapConfig()
	cfg.FlowRate = 5000
	snap := NewSnap(k, cfg,
		func(name string, body kernel.ThreadFunc) *kernel.Thread {
			return k.Spawn(kernel.SpawnOpts{Name: name, Class: cfs}, body)
		},
		func(name string, body kernel.ThreadFunc) *kernel.Thread {
			return k.Spawn(kernel.SpawnOpts{Name: name, Class: cfs}, body)
		})
	eng.RunFor(200 * sim.Millisecond)
	// 1 flow * 5k/s * 0.2s = ~1000 64B messages; 5 flows for 64K.
	if snap.Rec64B.Completed < 800 {
		t.Fatalf("64B completed = %d", snap.Rec64B.Completed)
	}
	if snap.Rec64K.Completed < 4000 {
		t.Fatalf("64K completed = %d", snap.Rec64K.Completed)
	}
	// RTT must include the wire RTT and processing.
	if min := snap.Rec64B.Hist.Quantile(0); min < wireRTT {
		t.Fatalf("64B min RTT = %v < wire RTT", min)
	}
	// 64K messages do more processing: higher median RTT.
	if snap.Rec64K.Hist.P50() <= snap.Rec64B.Hist.P50() {
		t.Fatalf("64K p50 (%v) <= 64B p50 (%v)", snap.Rec64K.Hist.P50(), snap.Rec64B.Hist.P50())
	}
}

func TestSearchEndToEnd(t *testing.T) {
	eng, k, cfs := testKernel(t, 16)
	cfg := SearchConfig{
		RateA: 5000, RateB: 3000, RateC: 1000,
		WorkersA: 8, WorkersB: 6, WorkersC: 6,
		Servers: 2, Seed: 7,
	}
	s := NewSearch(k, cfg,
		func(name string, aff kernel.Mask, body kernel.ThreadFunc) *kernel.Thread {
			return k.Spawn(kernel.SpawnOpts{Name: name, Class: cfs, Affinity: aff}, body)
		},
		func(name string, body kernel.ThreadFunc) *kernel.Thread {
			return k.Spawn(kernel.SpawnOpts{Name: name, Class: cfs}, body)
		})
	eng.RunFor(100 * sim.Millisecond)
	for qt := 0; qt < 3; qt++ {
		if s.Totals[qt].Completed == 0 {
			t.Fatalf("query type %c: no completions", 'A'+qt)
		}
	}
	// Type B includes an SSD wait, so its latency exceeds its CPU time.
	if p50 := s.Totals[QueryB].Hist.P50(); p50 < ssdWait {
		t.Fatalf("type B p50 = %v < ssd wait", p50)
	}
}

func TestVMSetCompletes(t *testing.T) {
	eng, k, cfs := testKernel(t, 8)
	set := NewVMSet(2, 4, 5*sim.Millisecond, 500*sim.Microsecond,
		func(name string, tag any, body kernel.ThreadFunc) *kernel.Thread {
			return k.Spawn(kernel.SpawnOpts{Name: name, Class: cfs, Tag: tag}, body)
		})
	eng.RunFor(100 * sim.Millisecond)
	if set.Finished != 8 {
		t.Fatalf("finished = %d, want 8", set.Finished)
	}
	if set.Done == 0 {
		t.Fatal("done time unset")
	}
	for i, vm := range set.VMs {
		for _, v := range vm.VCPUs {
			if VMOf(v) != i {
				t.Fatal("VM tag mismatch")
			}
		}
	}
}

func TestIsolationCheckerDetectsViolations(t *testing.T) {
	eng, k, cfs := testKernel(t, 4)
	ic := NewIsolationChecker(k, 100*sim.Microsecond)
	// Two vCPUs of DIFFERENT VMs pinned to sibling CPUs: CFS will
	// co-schedule them, which the checker must flag.
	topo := k.Topology()
	sib := topo.CPU(0).Sibling()
	k.Spawn(kernel.SpawnOpts{Name: "v0", Class: cfs, Affinity: kernel.MaskOf(0), Tag: &VMTag{VM: 0}},
		Spinner(100*sim.Microsecond))
	k.Spawn(kernel.SpawnOpts{Name: "v1", Class: cfs, Affinity: kernel.MaskOf(sib), Tag: &VMTag{VM: 1}},
		Spinner(100*sim.Microsecond))
	eng.RunFor(10 * sim.Millisecond)
	if ic.Violations == 0 {
		t.Fatal("checker missed cross-VM sibling co-scheduling")
	}
}

func TestSpinnerShare(t *testing.T) {
	eng, k, cfs := testKernel(t, 2)
	th := k.Spawn(kernel.SpawnOpts{Name: "spin", Class: cfs, Affinity: kernel.MaskOf(0)},
		Spinner(50*sim.Microsecond))
	eng.RunFor(10 * sim.Millisecond)
	if share := float64(th.CPUTime()) / (10e6); share < 0.95 {
		t.Fatalf("lone spinner share = %.2f", share)
	}
}
