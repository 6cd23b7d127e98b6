package baselines_test

import (
	"testing"

	"ghost/internal/baselines"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

func topo8(t *testing.T) (*sim.Engine, *kernel.Kernel, *kernel.CFS, *kernel.AgentClass) {
	t.Helper()
	topo := hw.NewTopology(hw.Config{Name: "b8", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 4, SMTWidth: 2})
	eng := sim.NewEngine()
	k := kernel.New(eng, topo, hw.DefaultCostModel())
	ac := kernel.NewAgentClass(k)
	cfs := kernel.NewCFS(k)
	t.Cleanup(k.Shutdown)
	return eng, k, cfs, ac
}

func TestShinjukuDataplaneServes(t *testing.T) {
	eng, k, _, ac := topo8(t)
	rec := &workload.LatencyRecorder{}
	dp := baselines.NewShinjukuDataplane(k, ac, 0, []hw.CPUID{1, 2, 3}, rec)
	src := workload.NewPoissonSource(eng, sim.NewRand(1), 50000, workload.Fixed(10*sim.Microsecond), dp.Submit)
	eng.RunFor(100 * sim.Millisecond)
	if rec.Completed < 4500 {
		t.Fatalf("completed = %d", rec.Completed)
	}
	if p50 := rec.Hist.P50(); p50 > 50*sim.Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
	// Arrived but not completed: the FIFO plus the three in service.
	if backlog := src.Emitted() - rec.Completed; backlog > 10+3 {
		t.Fatalf("queue backlog = %d", backlog)
	}
}

func TestShinjukuDataplanePreemptsLongRequests(t *testing.T) {
	eng, k, _, ac := topo8(t)
	rec := &workload.LatencyRecorder{}
	dp := baselines.NewShinjukuDataplane(k, ac, 0, []hw.CPUID{1}, rec)
	// One 10ms monster, then a stream of 5us requests on ONE worker.
	long := &workload.Request{Arrival: 0, Service: 10 * sim.Millisecond, Remaining: 10 * sim.Millisecond}
	dp.Submit(long)
	shortRec := &workload.LatencyRecorder{}
	for i := 1; i <= 20; i++ {
		r := &workload.Request{
			Arrival: sim.Time(i) * 100 * sim.Microsecond,
			Service: 5 * sim.Microsecond, Remaining: 5 * sim.Microsecond,
			Done: func(r *workload.Request, at sim.Time) { shortRec.Record(r, at) },
		}
		eng.At(r.Arrival, func() { dp.Submit(r) })
	}
	eng.RunFor(20 * sim.Millisecond)
	if shortRec.Completed != 20 {
		t.Fatalf("short completed = %d", shortRec.Completed)
	}
	// With 30us preemption, short requests wait at most ~1 slice plus
	// queueing behind other shorts.
	if p99 := shortRec.Hist.Quantile(0.99); p99 > 150*sim.Microsecond {
		t.Fatalf("short p99 = %v; preemption broken", p99)
	}
}

func TestShinjukuDataplaneStarvesBatch(t *testing.T) {
	eng, k, cfs, ac := topo8(t)
	rec := &workload.LatencyRecorder{}
	baselines.NewShinjukuDataplane(k, ac, 0, []hw.CPUID{1, 2}, rec)
	// A CFS batch thread confined to the dataplane's CPUs gets nothing
	// (Fig 6c: Shinjuku's dedicated cores cannot be shared).
	batch := k.Spawn(kernel.SpawnOpts{Name: "batch", Class: cfs, Affinity: kernel.MaskOf(0, 1, 2)},
		workload.Spinner(50*sim.Microsecond))
	eng.RunFor(10 * sim.Millisecond)
	if batch.CPUTime() > 0 {
		t.Fatalf("batch got %v on dedicated cores", batch.CPUTime())
	}
}

func TestKernelCoreSchedIsolation(t *testing.T) {
	eng, k, _, _ := topo8(t)
	cs := baselines.NewKernelCoreSched(k, workload.VMOf)
	ic := workload.NewIsolationChecker(k, 50*sim.Microsecond)
	set := workload.NewVMSet(2, 6, 5*sim.Millisecond, 100*sim.Microsecond,
		func(name string, tag any, body kernel.ThreadFunc) *kernel.Thread {
			return k.Spawn(kernel.SpawnOpts{Name: name, Class: cs, Tag: tag}, body)
		})
	eng.RunFor(50 * sim.Millisecond)
	if ic.Violations != 0 {
		t.Fatalf("violations = %d", ic.Violations)
	}
	if set.Finished != 12 {
		t.Fatalf("finished = %d of 12", set.Finished)
	}
}

func TestKernelCoreSchedFairness(t *testing.T) {
	eng, k, _, _ := topo8(t)
	cs := baselines.NewKernelCoreSched(k, workload.VMOf)
	set := workload.NewVMSet(2, 8, 100*sim.Millisecond, 200*sim.Microsecond,
		func(name string, tag any, body kernel.ThreadFunc) *kernel.Thread {
			return k.Spawn(kernel.SpawnOpts{Name: name, Class: cs, Tag: tag}, body)
		})
	eng.RunFor(20 * sim.Millisecond)
	var vt [2]sim.Duration
	for i, vm := range set.VMs {
		for _, v := range vm.VCPUs {
			vt[i] += v.CPUTime()
		}
	}
	if vt[0] == 0 || vt[1] == 0 {
		t.Fatalf("starvation: %v %v", vt[0], vt[1])
	}
	ratio := float64(vt[0]) / float64(vt[1])
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("unfair: %v vs %v", vt[0], vt[1])
	}
}

func TestCFSViolatesIsolation(t *testing.T) {
	// Sanity check of the experimental contrast: plain CFS co-schedules
	// vCPUs of different VMs on siblings.
	eng, k, cfs, _ := topo8(t)
	ic := workload.NewIsolationChecker(k, 50*sim.Microsecond)
	workload.NewVMSet(2, 8, 50*sim.Millisecond, 200*sim.Microsecond,
		func(name string, tag any, body kernel.ThreadFunc) *kernel.Thread {
			return k.Spawn(kernel.SpawnOpts{Name: name, Class: cfs, Tag: tag}, body)
		})
	eng.RunFor(10 * sim.Millisecond)
	if ic.Violations == 0 {
		t.Fatal("CFS unexpectedly isolated VMs; contrast broken")
	}
}
