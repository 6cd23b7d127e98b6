package kernel

import "ghost/internal/sim"

// BusyTime returns the cumulative time this CPU was non-idle, the busy
// accounting a snapshot carries.
func (c *CPU) BusyTime() sim.Duration {
	t := c.busyNS
	if c.accBusy {
		t += c.k.eng.Now() - c.busyStart
	}
	return t
}
