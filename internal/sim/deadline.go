package sim

// Deadline is a re-armable one-shot timer: Arm schedules a function at
// an absolute time, replacing any previously armed firing. It exists for
// recovery timeouts — the enclave's upgrade-attach fallback, fault
// windows — that are armed and disarmed as state changes.
//
// The callback is stored on the struct and dispatched through a
// package-level trampoline (rather than captured in a per-Arm closure) so
// that a pending firing is serializable: snapshots record it under the
// deadline's Key and restore re-links it via RestoreArmed.
type Deadline struct {
	eng *Engine
	fn  func()
	ev  Event

	// Key is the deadline's stable identity across snapshot/restore; see
	// Ticker.Key.
	Key string
}

// deadlineFire dispatches an armed deadline (allocation-free AtCall path).
func deadlineFire(a any) {
	d := a.(*Deadline)
	if fn := d.fn; fn != nil {
		fn()
	}
}

// NewDeadline returns a disarmed deadline bound to eng.
func NewDeadline(eng *Engine) *Deadline { return &Deadline{eng: eng} }

// Arm schedules fn to run at t, cancelling any pending firing first.
// The generational Event handle goes stale once the deadline fires, so no
// explicit cleanup wrapper is needed around fn.
func (d *Deadline) Arm(t Time, fn func()) {
	d.ev.Cancel()
	d.fn = fn
	d.ev = d.eng.AtCall(t, deadlineFire, d)
}

// Cancel disarms the deadline; a no-op when nothing is pending.
func (d *Deadline) Cancel() { d.ev.Cancel() }

// Pending reports whether a firing is scheduled.
func (d *Deadline) Pending() bool { return d.ev.Pending() }

// RestoreArmed re-links a restored pending firing and its callback
// (restore path; the callback is reconstructed by the owning subsystem).
func (d *Deadline) RestoreArmed(fn func(), ev Event) {
	d.fn = fn
	d.ev = ev
}
