package sim

// Ticker invokes a callback at a fixed period of simulated time. It serves
// statistics samplers and test drivers; a pending ticker firing is a
// closure-bound event no snapshot classifies, so it keeps its machine
// from being snapshotted. The kernel's periodic timers are pre-bound
// events their owners classify instead.
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      func(Time)
	ev      Event
	stopped bool
}

// tickerFire dispatches a ticker firing; package-level so re-arming goes
// through the engine's allocation-free AfterCall path.
func tickerFire(a any) {
	t := a.(*Ticker)
	t.fn(t.engine.Now())
	if !t.stopped {
		t.arm()
	}
}

// NewTicker starts a ticker whose first fire is one period from now.
// The callback receives the fire time.
func NewTicker(e *Engine, period Duration, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.engine.AfterCall(t.period, tickerFire, t)
}

// Stop halts the ticker; the callback will not fire again.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
