package sim

// Ticker invokes a callback at a fixed period of simulated time. It serves
// statistics samplers and test drivers; a pending ticker firing is a
// closure-bound event no snapshot classifies, so it keeps its machine
// from being snapshotted. The kernel's periodic timers are pre-bound
// events their owners classify instead.
type Ticker struct {
	engine *Engine
	period Duration
	fn     func(Time)
}

// tickerFire dispatches a ticker firing; package-level so re-arming goes
// through the engine's allocation-free AfterCall path.
func tickerFire(a any) {
	t := a.(*Ticker)
	t.fn(t.engine.Now())
	t.arm()
}

// NewTicker starts a ticker whose first fire is one period from now;
// it fires for as long as the engine runs. The callback receives the
// fire time.
func NewTicker(e *Engine, period Duration, fn func(Time)) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	(&Ticker{engine: e, period: period, fn: fn}).arm()
}

func (t *Ticker) arm() {
	t.engine.AfterCall(t.period, tickerFire, t)
}
