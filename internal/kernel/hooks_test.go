package kernel_test

import (
	"testing"

	"ghost"
	"ghost/internal/kernel"
)

// TestUpgradesAddNoHooks: agent generations register no kernel hooks of
// their own, so the idle and pressure hook lists keep their length
// across in-place upgrades (centralized to centralized, to per-CPU and
// back) and a crash. Each idle transition and each pressure event costs
// the same after a hundred upgrades as before the first.
func TestUpgradesAddNoHooks(t *testing.T) {
	m := ghost.NewMachine(ghost.XeonE5(), ghost.WithoutMetrics())
	defer m.Shutdown()
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 2, 3))
	idle, pressure := kernel.HookCounts(m.Kernel())
	for i := 0; i < 4; i++ {
		m.SpawnSpinner(ghost.ThreadOpts{Name: "spin", Class: ghost.Ghost(enc)}, 15*ghost.Microsecond)
	}
	set := m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())
	for gen := 1; gen <= 100; gen++ {
		m.Run(20 * ghost.Microsecond)
		set.Stop()
		switch gen % 3 {
		case 0:
			set = m.StartAgents(enc, ghost.NewPerCPUFIFOPolicy(), ghost.PerCPU())
		case 1:
			set = m.StartAgents(enc, ghost.NewShinjukuPolicy(), ghost.Global())
		default:
			set = m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())
		}
	}
	m.Run(20 * ghost.Microsecond)
	if enc.Destroyed() {
		t.Fatalf("the enclave died during the upgrades: %v", enc.DestroyCause())
	}
	set.Crash()
	m.Run(20 * ghost.Microsecond)
	if i, p := kernel.HookCounts(m.Kernel()); i != idle || p != pressure {
		t.Fatalf("after 100 upgrades and a crash: %d idle and %d pressure hooks, want %d and %d", i, p, idle, pressure)
	}
}
