// Package tfix is determinism-scoped (…/internal/kernel/…), so every
// function declared here is a root of the interprocedural taint pass.
// It is itself clean — the violations live two hops away in the
// unscoped fixturemod/taintutil package, where only whole-program
// reachability can find them.
package tfix

import "fixturemod/taintutil"

// Tick stands in for a kernel dispatch callback.
func Tick() int64 { return taintutil.Jitter() }

// Roll stands in for a policy decision helper.
func Roll() int { return taintutil.Draw() }

// Step stands in for the kernel asking a thread for its next action.
func Step(t *taintutil.Thread) int64 { return t.Next() }

// Poll stands in for a higher-order helper call.
func Poll() int64 { return taintutil.Each(taintutil.Zero) }

// Ring stands in for a kernel queue operation on a generic container.
func Ring(r *taintutil.Ring[int]) int64 { return r.Stamp() }
