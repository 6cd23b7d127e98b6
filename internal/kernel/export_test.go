package kernel

import (
	"ghost/internal/hw"
	"ghost/internal/sim"
)

// busyMeter sums each CPU's busy time from the kernel's switch and idle
// hooks: a busy period starts at the first switch-in after an idle edge
// and ends at the next idle edge, the same edges accBusy follows.
type busyMeter struct {
	k     *Kernel
	busy  []bool
	start []sim.Time
	total []sim.Duration
}

// meterBusy attaches a busyMeter to k. Its idle hook goes first, so a
// hook that puts work straight back on the CPU cannot hide an edge.
func meterBusy(k *Kernel) *busyMeter {
	n := k.NumCPUs()
	m := &busyMeter{k: k, busy: make([]bool, n), start: make([]sim.Time, n), total: make([]sim.Duration, n)}
	k.AddSwitchHook(func(c *CPU, _ *Thread) {
		if !m.busy[c.ID] {
			m.busy[c.ID], m.start[c.ID] = true, k.Now()
		}
	})
	idle := func(c *CPU) {
		if m.busy[c.ID] {
			m.busy[c.ID] = false
			m.total[c.ID] += k.Now() - m.start[c.ID]
		}
	}
	k.idleHooks = append([]func(*CPU){idle}, k.idleHooks...)
	return m
}

// of returns cpu's cumulative busy time up to now.
func (m *busyMeter) of(cpu hw.CPUID) sim.Duration {
	t := m.total[cpu]
	if m.busy[cpu] {
		t += m.k.Now() - m.start[cpu]
	}
	return t
}

// HookCounts returns how many idle and pressure hooks k has registered.
func HookCounts(k *Kernel) (idle, pressure int) { return len(k.idleHooks), len(k.pressureHooks) }
