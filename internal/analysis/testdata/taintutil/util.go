// Package taintutil is a helper package OUTSIDE the determinism scope
// (no /internal/<sim pkg> segment in its import path): the old
// syntactic check never looked inside it. The taint fixture's root
// package (testdata/taint) reaches into it, so its wall-clock and
// global-rand uses must be reported interprocedurally — with the full
// call chain — while the functions sim code never reaches stay silent.
package taintutil

import (
	"math/rand"
	"time"
)

// Jitter is hop 1 of the planted ≥2-hop violation chain.
func Jitter() int64 { return wallNow() % 7 }

// wallNow is hop 2: the actual wall-clock read.
func wallNow() int64 {
	return time.Now().UnixNano() // want determinism "time.Now: wall-clock read in taintutil.wallNow, reachable from sim code: tfix.Tick -> taintutil.Jitter"
}

// Draw reaches the global math/rand state one hop down.
func Draw() int { return rollDice() }

func rollDice() int {
	return rand.Intn(6) // want determinism "math/rand.Intn: global or unseeded rand in taintutil.rollDice"
}

// Unreached is never called from sim code; its clock read is fine here.
func Unreached() time.Time { return time.Now() }

// Thread keeps a step handed to its constructor and calls it through the
// field, the way kernel.Steps installs a machine.
type Thread struct{ step func() int64 }

// Steps builds a thread running step.
func Steps(step func() int64) *Thread { return &Thread{step: step} }

// Next calls the installed step.
func (t *Thread) Next() int64 { return t.step() }

// NewStamper is never called from sim code, but the step it installs
// runs wherever sim code calls Next.
func NewStamper() *Thread { return Steps(stamp) }

func stamp() int64 {
	return time.Now().UnixNano() // want determinism "time.Now: wall-clock read in taintutil.stamp, reachable from sim code: tfix.Step -> taintutil.(*Thread).Next"
}

// Each calls fn. A call through a parameter reaches only what the
// caller passes, not every function any caller passes.
func Each(fn func() int64) int64 { return fn() }

// Zero is what sim code passes to Each.
func Zero() int64 { return 0 }

// EachClock is never called from sim code; its argument stays silent.
func EachClock() int64 { return Each(clock) }

func clock() int64 { return time.Now().UnixNano() }

// Ring is a generic buffer. Sim code calls Stamp through an
// instantiated receiver, which the call graph must map back to the
// generic method's body.
type Ring[T any] struct{ buf []T }

// Stamp reads the wall clock inside a generic method.
func (r *Ring[T]) Stamp() int64 {
	return time.Now().UnixNano() + int64(len(r.buf)) // want determinism "time.Now: wall-clock read in taintutil.(*Ring).Stamp, reachable from sim code: tfix.Ring -> taintutil.(*Ring).Stamp"
}
