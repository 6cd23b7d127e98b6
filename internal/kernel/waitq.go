package kernel

// WaitQueue is a FIFO of blocked threads, the building block for workload
// synchronization (request queues, semaphores). Wakes may be spurious
// from the waiter's perspective, so callers re-check their condition in a
// loop, as with condition variables.
type WaitQueue struct {
	k       *Kernel
	waiters []*Thread
}

// NewWaitQueue creates a wait queue on k.
func NewWaitQueue(k *Kernel) *WaitQueue {
	return &WaitQueue{k: k}
}

// Wait enrolls the calling thread and blocks it. Must be called from the
// thread's own body.
func (w *WaitQueue) Wait(tc *TaskContext) {
	w.waiters = append(w.waiters, tc.t)
	tc.Block()
}

// remove drops t from the waiter list if present.
func (w *WaitQueue) remove(t *Thread) bool {
	for i, q := range w.waiters {
		if q == t {
			w.waiters = append(w.waiters[:i], w.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// WakeOne wakes the oldest waiter; returns false if none.
func (w *WaitQueue) WakeOne() bool {
	for len(w.waiters) > 0 {
		t := w.waiters[0]
		w.waiters = w.waiters[1:]
		if t.state != StateDead {
			w.k.Wake(t)
			return true
		}
	}
	return false
}

// WakeAll wakes every waiter.
func (w *WaitQueue) WakeAll() {
	for w.WakeOne() {
	}
}

// Len returns the number of enrolled waiters.
func (w *WaitQueue) Len() int { return len(w.waiters) }

// Mailbox is an unbounded FIFO of items with blocking receive, used to
// hand requests to simulated worker threads.
type Mailbox[T any] struct {
	k     *Kernel
	items []T
	wq    *WaitQueue
}

// NewMailbox creates a mailbox on k.
func NewMailbox[T any](k *Kernel) *Mailbox[T] {
	return &Mailbox[T]{k: k, wq: NewWaitQueue(k)}
}

// Put appends an item and wakes one waiting receiver. Callable from any
// context (engine events or thread bodies).
func (m *Mailbox[T]) Put(x T) {
	m.items = append(m.items, x)
	m.wq.WakeOne()
}

// Get blocks the calling thread until an item is available, then returns
// the oldest one.
func (m *Mailbox[T]) Get(tc *TaskContext) T {
	for len(m.items) == 0 {
		m.wq.Wait(tc)
	}
	x := m.items[0]
	m.items = m.items[1:]
	return x
}

// TryGet returns the oldest item without blocking.
func (m *Mailbox[T]) TryGet() (T, bool) {
	var zero T
	if len(m.items) == 0 {
		return zero, false
	}
	x := m.items[0]
	m.items = m.items[1:]
	return x, true
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) }
