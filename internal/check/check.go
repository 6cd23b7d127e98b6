// Package check is a property-based invariant checker for the ghOSt
// protocol (§2.3, §3.4): it generates random but seed-deterministic
// scenarios (internal/check.Generate), attaches invariant oracles as
// ghostcore/kernel observers checked online at event granularity, and on
// violation shrinks the failing scenario by deterministic bisection to a
// minimal repro runnable with `ghost-check -repro`.
//
// The oracle set (Default) covers: per-agent/per-thread sequence-number
// monotonicity, status-word/state-machine consistency (OnCpu ⇒ exactly
// one CPU, never two threads latched on one CPU), transaction
// group-commit atomicity, message-queue conservation (every message is
// produced exactly once and consumed or discarded, never duplicated
// outside a fault window), no-lost-thread (every runnable ghOSt thread
// is eventually scheduled or the watchdog fires), CFS-fallback liveness
// after enclave destruction, and the kernel's completion rule (a thread
// running a Run request always has its completion pending).
package check

import (
	"fmt"

	"ghost/internal/ghostcore"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Violation is one observed invariant breach.
type Violation struct {
	Time   sim.Time
	Oracle string
	Msg    string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] t=%v: %s", v.Oracle, v.Time, v.Msg)
}

// maxViolations caps collection so a badly broken run stays cheap.
const maxViolations = 64

// Oracle checks one protocol invariant. Each oracle is a ghostcore
// observer of its own: Attach files it under every protocol event it has
// a method for (the ghostcore *Observer interfaces), under the kernel's
// switch-in if it has SwitchIn(cpu *kernel.CPU, t *kernel.Thread), under
// its idle edge if it has Idle(cpu *kernel.CPU), and under the end-of-run
// check if it has Finish(now sim.Time). An oracle is called for the
// events it watches and no others. Implementations embed Base for the
// Checker they report through.
type Oracle interface {
	Name() string
	attach(c *Checker)
}

// Base holds the Checker an oracle reports through, set once by Attach.
type Base struct{ c *Checker }

func (b *Base) attach(c *Checker) { b.c = c }

// The checker's own events: the kernel's switch-in and idle edge, and
// the end of run.
type (
	switcher interface {
		SwitchIn(cpu *kernel.CPU, t *kernel.Thread)
	}
	idler    interface{ Idle(cpu *kernel.CPU) }
	finisher interface{ Finish(now sim.Time) }
)

// Checker collects the violations of a set of oracles. Attach wires the
// oracles to a class and kernel; Finish runs the end-of-run checks. One
// Checker serves one machine.
type Checker struct {
	k *kernel.Kernel
	g *ghostcore.Class

	// LostThreshold bounds how long a runnable ghOSt thread may wait for
	// a scheduling decision before the no-lost-thread oracle flags it.
	LostThreshold sim.Duration

	oracles    []Oracle
	finishers  []finisher
	violations []Violation
	finished   bool
}

// Attach registers each oracle, in order, on the class as a protocol
// observer and on the kernel's switch and idle hooks if it has SwitchIn
// or Idle, and returns the checker.
func Attach(k *kernel.Kernel, g *ghostcore.Class, oracles ...Oracle) *Checker {
	c := &Checker{k: k, g: g, oracles: oracles, LostThreshold: 10 * sim.Millisecond}
	for _, o := range oracles {
		o.attach(c)
		g.AddObserver(o)
		if s, ok := o.(switcher); ok {
			k.AddSwitchHook(s.SwitchIn)
		}
		if i, ok := o.(idler); ok {
			k.AddIdleHook(i.Idle)
		}
		if f, ok := o.(finisher); ok {
			c.finishers = append(c.finishers, f)
		}
	}
	return c
}

// Default returns a fresh instance of every invariant oracle.
func Default() []Oracle {
	return []Oracle{
		newSeqOracle(),
		newStatusWord(),
		newAtomicityOracle(),
		newConservationOracle(),
		newLostThreadOracle(),
		newFallbackOracle(),
		newStuckRunOracle(),
	}
}

// newStatusWord builds Default's status-word oracle. Tests swap in the
// full-scan reference that the OnCpu index is checked against.
var newStatusWord = func() Oracle { return newStatusWordOracle() }

// Kernel returns the kernel under check.
func (c *Checker) Kernel() *kernel.Kernel { return c.k }

// Ghost returns the ghOSt class under check.
func (c *Checker) Ghost() *ghostcore.Class { return c.g }

// Violations returns the breaches collected so far.
func (c *Checker) Violations() []Violation { return c.violations }

// Failed reports whether any invariant was violated.
func (c *Checker) Failed() bool { return len(c.violations) > 0 }

// Reportf records a violation on behalf of an oracle.
func (c *Checker) Reportf(o Oracle, format string, args ...any) {
	if len(c.violations) >= maxViolations {
		return
	}
	c.violations = append(c.violations, Violation{
		Time:   c.k.Now(),
		Oracle: o.Name(),
		Msg:    fmt.Sprintf(format, args...),
	})
}

// Finish runs the end-of-run oracles (conservation totals, lost threads,
// fallback liveness). Idempotent.
func (c *Checker) Finish(now sim.Time) {
	if c.finished {
		return
	}
	c.finished = true
	for _, o := range c.finishers {
		o.Finish(now)
	}
}
