// Package efix is a ghost-lint fixture: sim.Event aliasing abuse. It
// imports the real engine package so the analyzer resolves the genuine
// handle type.
package efix

import "ghost/internal/sim"

// holder stores a pointer to a handle — the stale-handle bug.
type holder struct {
	ev *sim.Event // want eventhandle "declared *sim.Event"
}

// Track compares handles and takes their address.
func Track(e *sim.Engine) bool {
	a := e.After(1, func() {})
	b := e.After(2, func() {})
	p := &a // want eventhandle "declared *sim.Event" want eventhandle "address of a sim.Event"
	_ = p
	return a == b // want eventhandle "comparing sim.Event handles"
}

// Good holds handles by value and queries them through Pending.
func Good(e *sim.Engine) bool {
	ev := e.After(1, func() {})
	return ev.Pending()
}
