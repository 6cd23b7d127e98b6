package ghost_test

import (
	"bytes"
	"fmt"
	"testing"

	"ghost"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/snap"
)

// restoreHorizon is how far FuzzRestoreAnywhere runs each machine.
const restoreHorizon = 10 * ghost.Millisecond

// restoreMachines are the machines FuzzRestoreAnywhere restores: each
// ghOSt policy with the snapshot capability, FIFO also round-robin, and
// the same pool under CFS and under MicroQuanta with no enclave. Each is
// loaded enough that its queues often hold threads at a barrier. The
// Shinjuku enclave has a 20 ms watchdog, which scans every 5 ms and
// cannot fire within the horizon, so its pending scan rides in every
// image. The last two are experiment machines: a fig5 point and the
// -quick shinjuku-rocksdb benchmark workload.
var restoreMachines = []struct {
	name  string
	build func(opts ...ghost.MachineOption) *ghost.Machine
}{
	{"fifo", func(opts ...ghost.MachineOption) *ghost.Machine {
		return buildServingAt(100_000, ghost.NewFIFOPolicy(), ghost.Global(), opts...)
	}},
	{"fifo-rr", func(opts ...ghost.MachineOption) *ghost.Machine {
		p := ghost.NewFIFOPolicy()
		p.Quantum = 20 * ghost.Microsecond
		return buildServingAt(100_000, p, ghost.Global(), opts...)
	}},
	{"shinjuku", func(opts ...ghost.MachineOption) *ghost.Machine {
		return buildServingEnc(100_000, ghost.NewShinjukuPolicy(), ghost.Global(), []ghost.EnclaveOption{ghost.WithWatchdog(20 * ghost.Millisecond)}, opts...)
	}},
	{"percpu-fifo", func(opts ...ghost.MachineOption) *ghost.Machine {
		return buildServingAt(100_000, ghost.NewPerCPUFIFOPolicy(), ghost.PerCPU(), opts...)
	}},
	{"cfs", func(opts ...ghost.MachineOption) *ghost.Machine {
		return buildClassPool(ghost.CFS, ghost.MaskOf(0, 1, 24, 25), ghost.MaskOf(0), 8, 120_000, opts...)
	}},
	{"microquanta", func(opts ...ghost.MachineOption) *ghost.Machine {
		return buildClassPool(ghost.MicroQuanta, ghost.MaskOf(0, 1), ghost.MaskOf(0, 1), 4, 60_000, opts...)
	}},
	{"fig5", buildFig5},
	{"shinjuku-rocksdb", buildShinjukuRocksDB},
}

// fig5Work is the CPU time of one fig5 looper transaction.
const fig5Work = 15 * ghost.Microsecond

// fig5Looper is fig5's body: run fig5Work, then yield, forever. It is
// registered here so that fig5's machine restores without the
// experiments package keeping snapshot support of its own.
func fig5Looper() ghost.ThreadFunc {
	return kernel.Steps(func(t *kernel.Thread) (kernel.Action, bool) {
		if t.Ran() {
			return kernel.YieldAction(), true
		}
		return kernel.RunAction(fig5Work), true
	})
}

func init() {
	snap.RegisterBody("ghost_test.fig5-looper", func(_ *snap.RestoreCtx, rec kernel.BodyRec, _ *sim.Rand) (kernel.ThreadFunc, error) {
		if len(rec.Args) != 0 {
			return nil, fmt.Errorf("%w: fig5-looper wants no args, got %d", snap.ErrCorrupt, len(rec.Args))
		}
		return fig5Looper(), nil
	})
}

// buildFig5 is one fig5 point on Skylake: a central-FIFO global agent on
// CPU 0 and two run-then-yield loopers per worker CPU. The workers sit
// on a socket-0 core (1), a socket-0 hyperthread (57), the agent's own
// sibling (56, the figure's dip) and a socket-1 core (28, its droop).
func buildFig5(opts ...ghost.MachineOption) *ghost.Machine {
	m := ghost.NewMachine(ghost.Skylake(), opts...)
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 57, 56, 28))
	m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())
	for i := 0; i < 2*4; i++ {
		th := m.Spawn(ghost.ThreadOpts{Name: "looper", Class: ghost.Ghost(enc)}, fig5Looper())
		th.SetBodyDesc(&kernel.BodyDesc{Kind: "ghost_test.fig5-looper"})
	}
	return m
}

// buildShinjukuRocksDB is ghost-perf's shinjuku-rocksdb workload at
// -quick and seed 1, built from the same facade calls: XeonE5, a
// 21-CPU enclave under a global Shinjuku agent, 200 workers and the
// RocksDB mix at 280k req/s, with its pool and source registered for
// snapshots.
func buildShinjukuRocksDB(opts ...ghost.MachineOption) *ghost.Machine {
	m := ghost.NewMachine(ghost.XeonE5(), opts...)
	enc := m.NewEnclave(ghost.MaskAll(21))
	m.StartAgents(enc, ghost.NewShinjukuPolicy(), ghost.Global())
	rec := &ghost.LatencyRecorder{WarmupUntil: ghost.Time(10 * ghost.Millisecond)}
	pool := m.NewWorkerPool(200, rec, func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name, Class: ghost.Ghost(enc)}, body)
	})
	m.AddSnapshotComponent("pool", pool)
	src := m.NewPoissonSource(ghost.NewRand(1), 280_000, ghost.RocksDBService(), func(r *ghost.Request) { pool.Submit(r) })
	m.AddSnapshotComponent("src", src)
	return m
}

// buildClassPool is buildServing without an enclave: a pool of workers
// on cpus fed by a Poisson source at rate, and a spinner on spin, all of
// class.
func buildClassPool(class ghost.ThreadClass, cpus, spin ghost.CPUMask, workers int, rate float64, opts ...ghost.MachineOption) *ghost.Machine {
	m := ghost.NewMachine(ghost.XeonE5(), opts...)
	pool := m.NewWorkerPool(workers, &ghost.LatencyRecorder{}, func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name, Class: class, Affinity: cpus}, body)
	})
	m.AddSnapshotComponent("pool", pool)
	src := m.NewPoissonSource(ghost.NewRand(7), rate, ghost.ExponentialService(20*ghost.Microsecond),
		func(r *ghost.Request) { pool.Submit(r) })
	m.AddSnapshotComponent("src", src)
	m.SpawnSpinner(ghost.ThreadOpts{Name: "spin", Class: class, Affinity: spin}, 15*ghost.Microsecond)
	return m
}

// FuzzRestoreAnywhere is the restore-equivalence property: a machine
// snapshotted at the first quiescent barrier at or after any instant,
// pushed through the wire codec and restored, runs to the horizon with
// the Metrics string and digest of the uninterrupted run. Both machines
// run without the tracer's metrics, which a restore starts from zero, so
// their Metrics strings carry the engine's event count and queue
// high-water mark. The input picks the machine (modulo the list) and the
// instant (nanoseconds, modulo the horizon); the seed corpus tries each
// machine at eight instants.
func FuzzRestoreAnywhere(f *testing.F) {
	for m := range restoreMachines {
		for _, at := range []ghost.Time{0, 7_000, 151_000, 1_419_000, 2_777_000, 4_234_000, 6_901_000, 8_633_000} {
			f.Add(uint8(m), uint64(at))
		}
	}
	f.Fuzz(func(t *testing.T, machine uint8, atNS uint64) {
		mc := restoreMachines[int(machine)%len(restoreMachines)]
		at := ghost.Time(atNS % uint64(restoreHorizon))
		orig := mc.build(ghost.WithoutMetrics())
		defer orig.Shutdown()
		orig.RunUntil(at)
		var wire bytes.Buffer
		for {
			s, err := orig.Snapshot()
			if err == nil {
				if _, err := s.WriteTo(&wire); err != nil {
					t.Fatalf("WriteTo: %v", err)
				}
				break
			}
			if orig.Now() >= restoreHorizon {
				t.Fatalf("%s: no snapshottable barrier from %v to the horizon: %v", mc.name, at, err)
			}
			orig.Run(ghost.Microsecond)
		}
		from := orig.Now()
		orig.RunUntil(restoreHorizon)
		want := orig.Metrics().String() + "digest " + digestAt(t, orig)
		if got := restoredRun(t, wire.Bytes(), restoreHorizon); got != want {
			t.Fatalf("%s restored at %v is not transparent:\n%s\nwant\n%s", mc.name, from, got, want)
		}
	})
}

// TestRestoreSwitchEndWithNoCurrent: a thread that leaves its CPU in the
// context-switch dead time (killed, moved to another class or forced
// off) leaves the CPU switching with no current thread and its switch
// end pending. A snapshot taken there restores, and the restored
// machine runs to the horizon as the uninterrupted one does.
func TestRestoreSwitchEndWithNoCurrent(t *testing.T) {
	for _, tc := range []struct {
		name  string
		leave func(m *ghost.Machine, th *ghost.Thread)
	}{
		{"kill", func(m *ghost.Machine, th *ghost.Thread) { m.Kernel().Kill(th) }},
		{"set-class", func(m *ghost.Machine, th *ghost.Thread) { m.Kernel().SetClass(th, m.MicroQuanta) }},
		{"force-off", func(m *ghost.Machine, th *ghost.Thread) { m.Kernel().ForceOffCPU(th) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := buildClassPool(ghost.CFS, ghost.MaskOf(0, 1, 24, 25), ghost.MaskOf(0), 8, 120_000, ghost.WithoutMetrics())
			defer orig.Shutdown()
			var cpu *kernel.CPU
			var spin *ghost.Thread
			orig.Kernel().AddSwitchHook(func(c *kernel.CPU, next *ghost.Thread) {
				if next.Name() == "spin" {
					cpu, spin = c, next
				}
			})
			// Each step is shorter than a CFS switch-in (599 ns), so a
			// switch-in seen in the last step is still in its dead time.
			for {
				cpu, spin = nil, nil
				orig.Run(100 * ghost.Nanosecond)
				if spin != nil && cpu.Curr() == spin {
					break
				}
				if orig.Now() >= restoreHorizon/2 {
					t.Fatal("the spinner never switched in")
				}
			}
			tc.leave(orig, spin)
			if cpu.Curr() != nil || cpu.Idle() {
				t.Fatalf("cpu%d is not switching with no current thread", cpu.ID)
			}
			s, err := orig.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			var wire bytes.Buffer
			if _, err := s.WriteTo(&wire); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			orig.RunUntil(restoreHorizon)
			want := orig.Metrics().String() + "digest " + digestAt(t, orig)
			if got := restoredRun(t, wire.Bytes(), restoreHorizon); got != want {
				t.Fatalf("restored at %v is not transparent:\n%s\nwant\n%s", s.Time(), got, want)
			}
		})
	}
}
