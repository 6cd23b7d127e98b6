package policies

import (
	"fmt"
	"slices"
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// The full scans the placement ring replaced, kept as the reference: a
// walk over a CPU-indexed slot table that reads every occupant.

// fullScanNextExpiry is the old nextExpiry: the time until the earliest
// occupant exceeds slice, at least 1 µs, 0 if nothing is placed.
func fullScanNextExpiry(slots []*TState, now sim.Time, slice sim.Duration) sim.Duration {
	var min sim.Duration
	for _, ts := range slots {
		if ts == nil {
			continue
		}
		d := ts.LastStart + slice - now
		if d < sim.Microsecond {
			d = sim.Microsecond
		}
		if min == 0 || d < min {
			min = d
		}
	}
	return min
}

// fullScanExpired lists the slots the old timeslice walk acted on, in
// the order it visited them.
func fullScanExpired(slots []*TState, now sim.Time, slice sim.Duration) []hw.CPUID {
	var out []hw.CPUID
	for cpu, ts := range slots {
		if ts != nil && now-ts.LastStart >= slice {
			out = append(out, hw.CPUID(cpu))
		}
	}
	return out
}

// fullScanAnyBatchCPU is the old Shinjuku.anyBatchCPU.
func fullScanAnyBatchCPU(slots []*TState) hw.CPUID {
	for cpu, ts := range slots {
		if ts != nil && ts.Thread.State() == kernel.StateRunning {
			return hw.CPUID(cpu)
		}
	}
	return hw.NoCPU
}

// fullScanLowerBandVictim is the old CentralFIFO.findLowerBandVictim.
func fullScanLowerBandVictim(p *CentralFIFO, slots []*TState, band int) hw.CPUID {
	for cpu, ts := range slots {
		if ts != nil && p.bandOf(ts.Thread) > band && ts.Thread.State() == kernel.StateRunning {
			return hw.CPUID(cpu)
		}
	}
	return hw.NoCPU
}

// slotTable copies pl's occupants out as a plain CPU-indexed table.
func slotTable(pl *placements) []*TState {
	out := make([]*TState, len(pl.slots))
	for cpu := range pl.slots {
		out[cpu] = pl.at(hw.CPUID(cpu))
	}
	return out
}

// maskCPUs lists m's CPUs in the order the policies walk them.
func maskCPUs(m kernel.Mask) []hw.CPUID {
	var out []hw.CPUID
	for !m.Empty() {
		c := m.First()
		out = append(out, c)
		m.Clear(c)
	}
	return out
}

// checkAgainstScan fails unless pl agrees with the reference table ref
// on occupants, occupancy order, and, for each slice, the deadline and
// the expired walk.
func checkAgainstScan(t *testing.T, step string, pl *placements, ref []*TState, now sim.Time) {
	t.Helper()
	var occupied []hw.CPUID
	for cpu, ts := range ref {
		if got := pl.at(hw.CPUID(cpu)); got != ts {
			t.Fatalf("%s: cpu%d holds %p, reference %p", step, cpu, got, ts)
		}
		if ts != nil {
			occupied = append(occupied, hw.CPUID(cpu))
		}
	}
	if got := maskCPUs(pl.occ); !slices.Equal(got, occupied) {
		t.Fatalf("%s: occupancy walk %v, reference %v", step, got, occupied)
	}
	for _, slice := range []sim.Duration{0, sim.Microsecond, 30 * sim.Microsecond, 100 * sim.Microsecond} {
		if got, want := pl.nextExpiry(now, slice), fullScanNextExpiry(ref, now, slice); got != want {
			t.Fatalf("%s: slice %v: nextExpiry %v, full scan %v", step, slice, got, want)
		}
		if got, want := maskCPUs(pl.expired(now, slice)), fullScanExpired(ref, now, slice); !slices.Equal(got, want) {
			t.Fatalf("%s: slice %v: expired walk %v, full scan %v", step, slice, got, want)
		}
	}
}

// TestPlacementsMatchFullScan drives random put, overwrite, release,
// vacate and restore-rebuild sequences through a placement table and a
// plain slot table side by side. After every operation the ring's
// deadline and expired walk, and the occupancy walk, must equal the full
// scans'. Placements stamp LastStart with a clock that often stands
// still, so the ring holds ties.
func TestPlacementsMatchFullScan(t *testing.T) {
	const ncpu, nthreads = 12, 20
	eng := sim.NewEngine()
	k := kernel.New(eng, hw.NewTopology(hw.Config{Name: "p12", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 12, SMTWidth: 1}), hw.DefaultCostModel())
	t.Cleanup(k.Shutdown)
	cfs := kernel.NewCFS(k)
	tr := NewTracker()
	var all []*TState
	for i := 0; i < nthreads; i++ {
		th := k.Spawn(kernel.SpawnOpts{Name: "w", Class: cfs}, func(tc *kernel.TaskContext) { tc.Block() })
		ts := &TState{Thread: th, CPU: -1}
		tr.Threads[th.TID()] = ts
		all = append(all, ts)
	}
	rnd := sim.NewRand(5)
	for seq := 0; seq < 200; seq++ {
		pl := placements{slots: make([]slot, ncpu), head: -1}
		ref := make([]*TState, ncpu)
		for _, ts := range all {
			*ts = TState{Thread: ts.Thread, CPU: -1}
		}
		var now sim.Time
		for op := 0; op < 200; op++ {
			if rnd.Intn(3) > 0 {
				now += sim.Duration(rnd.Intn(40)) * sim.Microsecond
			}
			ts := all[rnd.Intn(nthreads)]
			cpu := hw.CPUID(rnd.Intn(ncpu))
			var step string
			switch r := rnd.Intn(10); {
			case r < 5: // put, onto an empty or an occupied slot
				if slices.Contains(ref, ts) {
					continue // a queued thread holds no slot
				}
				step = fmt.Sprintf("put T%d on cpu%d (holder %v)", ts.Thread.TID(), cpu, ref[cpu] != nil)
				tr.MarkScheduled(ts, int(cpu), now)
				pl.put(cpu, ts)
				ref[cpu] = ts
			case r < 7: // release, Shinjuku's clearPlacement
				step = fmt.Sprintf("release T%d (cpu%d)", ts.Thread.TID(), ts.CPU)
				pl.release(ts)
				if ts.CPU >= 0 && ref[ts.CPU] == ts {
					ref[ts.CPU] = nil
				}
				ts.CPU = -1
			case r < 9: // vacate, CentralFIFO's clear of whoever holds ts.CPU
				step = fmt.Sprintf("vacate T%d (cpu%d)", ts.Thread.TID(), ts.CPU)
				if ts.CPU >= 0 {
					pl.clear(hw.CPUID(ts.CPU))
					ref[ts.CPU] = nil
					ts.CPU = -1
				}
			default: // restore-rebuild from the saved pairs
				step = "restore"
				fresh := placements{slots: make([]slot, ncpu), head: -1}
				if err := fresh.load(tr, pl.pairs()); err != nil {
					t.Fatalf("seq %d op %d: load: %v", seq, op, err)
				}
				pl = fresh
			}
			checkAgainstScan(t, fmt.Sprintf("seq %d op %d %s", seq, op, step), &pl, ref, now)
		}
	}
}

// walkChecker runs the policy-level walks against their full scans
// before every Schedule call of a live run.
type walkChecker struct {
	agentsdk.GlobalPolicy
	t     *testing.T
	check func(now sim.Time)
	calls int
}

func (w *walkChecker) Schedule(ctx *agentsdk.Context) []agentsdk.Assignment {
	w.check(ctx.Now())
	w.calls++
	return w.GlobalPolicy.Schedule(ctx)
}

// runLive starts pol as a global agent on a six-CPU enclave of an
// eight-CPU machine, spawns latency threads that run and sleep for
// random spans and batch spinners (names "lat" and "batch"), and runs
// for 20 ms. It fails if check was never called.
func runLive(t *testing.T, pol agentsdk.GlobalPolicy, check func(now sim.Time)) {
	eng := sim.NewEngine()
	k := kernel.New(eng, hw.NewTopology(hw.Config{Name: "p8", Sockets: 2, CCXsPerSocket: 1, CoresPerCCX: 2, SMTWidth: 2}), hw.DefaultCostModel())
	t.Cleanup(k.Shutdown)
	ac := kernel.NewAgentClass(k)
	g := ghostcore.NewClass(k, kernel.NewCFS(k))
	enc := ghostcore.NewEnclave(g, kernel.MaskOf(0, 1, 2, 3, 4, 5))
	w := &walkChecker{GlobalPolicy: pol, t: t, check: check}
	agentsdk.Start(k, enc, ac, w, agentsdk.Global())
	rnd := sim.NewRand(11)
	for i := 0; i < 8; i++ {
		r := rnd.Fork()
		enc.SpawnThread(kernel.SpawnOpts{Name: "lat"}, func(tc *kernel.TaskContext) {
			for {
				tc.Run(sim.Duration(1+r.Intn(80)) * sim.Microsecond)
				tc.Sleep(sim.Duration(1+r.Intn(60)) * sim.Microsecond)
			}
		})
	}
	for i := 0; i < 3; i++ {
		enc.SpawnThread(kernel.SpawnOpts{Name: "batch"}, func(tc *kernel.TaskContext) {
			for {
				tc.Run(500 * sim.Microsecond)
			}
		})
	}
	eng.RunFor(20 * sim.Millisecond)
	if w.calls == 0 {
		t.Fatal("Schedule was never called")
	}
}

// TestCentralizedWalksMatchFullScan: in live runs, at every agent step,
// Shinjuku's batch-victim search and slice walk and CentralFIFO's
// lower-band victim search and quantum walk pick what the full scans
// pick, with real thread states and bands.
func TestCentralizedWalksMatchFullScan(t *testing.T) {
	isBatch := func(th *kernel.Thread) bool { return th.Name() == "batch" }
	t.Run("shinjuku-shenango", func(t *testing.T) {
		p := NewShinjukuShenango(isBatch)
		victims, expiries := 0, 0
		runLive(t, p, func(now sim.Time) {
			running, batchOn := slotTable(&p.running), slotTable(&p.batchOn)
			want := fullScanAnyBatchCPU(batchOn)
			if got := p.anyBatchCPU(); got != want {
				t.Fatalf("t=%v: anyBatchCPU %d, full scan %d", now, got, want)
			}
			if want != hw.NoCPU {
				victims++
			}
			if len(fullScanExpired(running, now, p.Slice)) > 0 {
				expiries++
			}
			checkAgainstScan(t, fmt.Sprintf("t=%v running", now), &p.running, running, now)
			checkAgainstScan(t, fmt.Sprintf("t=%v batchOn", now), &p.batchOn, batchOn, now)
		})
		if victims == 0 || expiries == 0 {
			t.Fatalf("%d steps with a batch victim, %d with an expired slice; the run covers neither walk", victims, expiries)
		}
	})
	t.Run("central-fifo-bands", func(t *testing.T) {
		p := &CentralFIFO{NumBands: 3, PreemptLower: true, Quantum: 20 * sim.Microsecond,
			Band: func(th *kernel.Thread) int {
				if isBatch(th) {
					return 2
				}
				return int(th.TID()) % 2
			}}
		victims, expiries := 0, 0
		runLive(t, p, func(now sim.Time) {
			running := slotTable(&p.running)
			for b := 0; b < p.NumBands; b++ {
				want := fullScanLowerBandVictim(p, running, b)
				if got := p.findLowerBandVictim(b); got != want {
					t.Fatalf("t=%v band %d: findLowerBandVictim %d, full scan %d", now, b, got, want)
				}
				if want != hw.NoCPU {
					victims++
				}
			}
			if len(fullScanExpired(running, now, p.Quantum)) > 0 {
				expiries++
			}
			checkAgainstScan(t, fmt.Sprintf("t=%v running", now), &p.running, running, now)
		})
		if victims == 0 || expiries == 0 {
			t.Fatalf("%d lower-band victims, %d steps with an expired quantum; the run covers neither walk", victims, expiries)
		}
	})
}
