//go:build go1.23

// Only this file needs package iter; the go1.23 constraint raises its
// language version above the module's go 1.22.

package kernel

import "iter"

// startBody makes the thread's step a machine over body's coroutine:
// each call runs the body up to its next TaskContext call, whose action
// it returns, and stop unwinds the parked body through errShutdown. Any
// other body panic surfaces from the step, on the engine's side. A body
// that returns exits the thread, unless it installed a Steps machine:
// that machine is then the thread's step.
func (t *Thread) startBody(body ThreadFunc) {
	tc := &TaskContext{t: t}
	next, stop := iter.Pull(func(yield func(Action) bool) {
		tc.yield = yield
		defer func() {
			if r := recover(); r != nil && r != (errShutdown{}) {
				panic(r)
			}
		}()
		body(tc)
	})
	t.stop = stop
	t.step = func(t *Thread) (Action, bool) {
		if a, ok := next(); ok {
			return a, true
		}
		if tc.steps == nil {
			return Action{}, false
		}
		// The coroutine has ended, so there is nothing left to unwind:
		// from now on the machine is the thread's execution.
		t.step, t.stop = tc.steps, nil
		return t.step(t)
	}
}
