package agentsdk_test

import (
	"errors"
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/faults"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
)

// TestUpgradeAttachTimeoutFallsBack is the regression test for the
// upgrade-stranding bug: Stop() announces an upgrade, which suppresses
// the crash fallback — but if no successor ever attaches, the bounded
// upgrade timeout must re-arm it so threads degrade to the fallback
// scheduler instead of hanging in the enclave forever.
func TestUpgradeAttachTimeoutFallsBack(t *testing.T) {
	e := newEnv(t, 8)
	set := agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())

	done := 0
	for i := 0; i < 4; i++ {
		e.enc.SpawnThread(kernel.SpawnOpts{Name: "worker"}, func(tc *kernel.TaskContext) {
			for j := 0; j < 50; j++ {
				tc.Run(20 * sim.Microsecond)
			}
			done++
		})
	}
	e.eng.RunFor(200 * sim.Microsecond) // let work start under ghOSt
	set.Stop()                          // announce an upgrade; no successor ever attaches

	if e.enc.Destroyed() {
		t.Fatal("enclave destroyed at Stop — upgrade grace period missing")
	}
	// Within the grace period threads are stranded but the enclave lives.
	e.eng.RunFor(ghostcore.DefaultUpgradeTimeout / 2)
	if e.enc.Destroyed() {
		t.Fatal("enclave destroyed before the upgrade timeout elapsed")
	}
	// Past the timeout the fallback must have re-armed and fired.
	e.eng.RunFor(ghostcore.DefaultUpgradeTimeout)
	if !e.enc.Destroyed() {
		t.Fatal("upgrade timeout never re-armed the crash fallback; threads stranded")
	}
	if !errors.Is(e.enc.DestroyCause(), ghostcore.ErrUpgradeTimeout) {
		t.Errorf("destroy cause = %v, want ErrUpgradeTimeout", e.enc.DestroyCause())
	}
	// The workers finish under the fallback scheduler (1ms of work each).
	e.eng.RunFor(20 * sim.Millisecond)
	if done != 4 {
		t.Errorf("%d/4 workers completed after fallback; threads were lost", done)
	}
}

// TestBeginUpgradeRearmsDeadline: a second BeginUpgrade replaces the
// pending attach deadline instead of adding one, so the enclave lives
// until DefaultUpgradeTimeout after the last announcement.
func TestBeginUpgradeRearmsDeadline(t *testing.T) {
	e := newEnv(t, 8)
	set := agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	e.eng.RunFor(100 * sim.Microsecond)
	set.Stop() // BeginUpgrade at t; no successor ever attaches
	e.eng.RunFor(30 * sim.Millisecond)
	e.enc.BeginUpgrade() // t+30ms: the deadline moves to t+80ms
	e.eng.RunFor(30 * sim.Millisecond)
	if e.enc.Destroyed() {
		t.Fatalf("enclave destroyed by t+60ms (%v): the first deadline was not cancelled", e.enc.DestroyCause())
	}
	e.eng.RunFor(25 * sim.Millisecond)
	if !e.enc.Destroyed() {
		t.Fatal("enclave alive at t+85ms: the re-armed deadline never fired")
	}
	if !errors.Is(e.enc.DestroyCause(), ghostcore.ErrUpgradeTimeout) {
		t.Errorf("destroy cause = %v, want ErrUpgradeTimeout", e.enc.DestroyCause())
	}
}

// TestUpgradeUnderLoad drives several forced upgrades through a loaded
// enclave and checks the §3.4 invariants: no thread is lost across a
// handoff (all work completes), no thread is latched on two CPUs at
// once, and the enclave survives every upgrade.
func TestUpgradeUnderLoad(t *testing.T) {
	e := newEnv(t, 8)
	plan := faults.NewPlan(3)
	const nUpgrades = 5
	for i := 1; i <= nUpgrades; i++ {
		plan.Upgrade(sim.Time(i) * sim.Time(2*sim.Millisecond))
	}
	e.k.SetFaults(faults.NewInjector(e.eng, plan))
	agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(),
		agentsdk.Global(),
		agentsdk.WithUpgradePolicy(func() any { return policies.NewCentralFIFO() }))

	done := 0
	var workers []*kernel.Thread
	for i := 0; i < 6; i++ {
		th := e.enc.SpawnThread(kernel.SpawnOpts{Name: "worker"}, func(tc *kernel.TaskContext) {
			for j := 0; j < 100; j++ {
				tc.Block()
				tc.Run(20 * sim.Microsecond)
			}
			done++
		})
		workers = append(workers, th)
	}
	sim.NewTicker(e.eng, 50*sim.Microsecond, func(sim.Time) {
		for _, w := range workers {
			if w.State() == kernel.StateBlocked {
				e.k.Wake(w)
			}
		}
	})
	// Double-latch detector: no thread may hold two CPUs at once.
	sim.NewTicker(e.eng, 10*sim.Microsecond, func(now sim.Time) {
		seen := make(map[*kernel.Thread]hw.CPUID)
		e.enc.CPUs().ForEach(func(cpu hw.CPUID) bool {
			if th := e.enc.LatchedFor(cpu); th != nil {
				if prev, ok := seen[th]; ok {
					t.Errorf("t=%v: thread %d latched on cpu%d and cpu%d", now, th.TID(), prev, cpu)
				}
				seen[th] = cpu
			}
			return true
		})
	})

	e.eng.RunFor(30 * sim.Millisecond)
	if e.enc.Destroyed() {
		t.Fatalf("enclave destroyed during upgrades: %v", e.enc.DestroyCause())
	}
	if done != 6 {
		t.Errorf("%d/6 workers completed across %d upgrades; threads were lost", done, nUpgrades)
	}
	if got := e.enc.AgentsAttached(); got == 0 {
		t.Error("no agent generation attached after the final upgrade")
	}
}
