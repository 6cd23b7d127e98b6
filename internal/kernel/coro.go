//go:build go1.23

// Only this file needs package iter; the go1.23 constraint raises its
// language version above the module's go 1.22.

package kernel

import "iter"

// startBody makes body the thread's coroutine: next runs it up to its
// next TaskContext call or its return, and stop unwinds it through
// errShutdown. Any other body panic surfaces from next, on the engine's
// side.
func (t *Thread) startBody(body ThreadFunc) {
	t.next, t.stop = iter.Pull(func(yield func(Action) bool) {
		t.yield = yield
		defer func() {
			if r := recover(); r != nil && r != (errShutdown{}) {
				panic(r)
			}
		}()
		body(&TaskContext{t: t})
	})
}
