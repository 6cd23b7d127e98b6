package kernel

// fifo is a slice-backed FIFO that reuses its backing array. Popped
// slots are cleared, so popped items do not stay reachable, and an
// append that would grow a half-consumed array slides the live items to
// the front instead.
type fifo[T any] struct {
	buf  []T
	head int // buf[head:] are the live items
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(x T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, x)
}

// pop removes and returns the oldest item; the FIFO must not be empty.
func (q *fifo[T]) pop() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return x
}

// WaitQueue is a FIFO of blocked threads, the building block for workload
// synchronization (request queues, semaphores). Wakes may be spurious
// from the waiter's perspective, so callers re-check their condition in a
// loop, as with condition variables.
type WaitQueue struct {
	k       *Kernel
	waiters fifo[*Thread]
}

// NewWaitQueue creates a wait queue on k.
func NewWaitQueue(k *Kernel) *WaitQueue {
	return &WaitQueue{k: k}
}

// Wait enrolls the calling thread and blocks it. Must be called from the
// thread's own body.
func (w *WaitQueue) Wait(tc *TaskContext) {
	tc.submit(w.WaitAction(tc.t))
}

// WaitAction enrolls t and returns the Block that waits for a wake: Wait
// for a Steps machine.
func (w *WaitQueue) WaitAction(t *Thread) Action {
	w.waiters.push(t)
	return BlockAction()
}

// WakeOne wakes the oldest waiter; returns false if none.
func (w *WaitQueue) WakeOne() bool {
	for w.waiters.len() > 0 {
		if t := w.waiters.pop(); t.state != StateDead {
			w.k.Wake(t)
			return true
		}
	}
	return false
}

// Mailbox is an unbounded FIFO of items with blocking receive, used to
// hand requests to simulated worker threads.
type Mailbox[T any] struct {
	items fifo[T]
	wq    *WaitQueue
}

// NewMailbox creates a mailbox on k.
func NewMailbox[T any](k *Kernel) *Mailbox[T] {
	return &Mailbox[T]{wq: NewWaitQueue(k)}
}

// Put appends an item and wakes one waiting receiver. Callable from any
// context (engine events or thread bodies).
func (m *Mailbox[T]) Put(x T) {
	m.items.push(x)
	m.wq.WakeOne()
}

// Get blocks the calling thread until an item is available, then returns
// the oldest one.
func (m *Mailbox[T]) Get(tc *TaskContext) T {
	for {
		x, wait, ok := m.TryGetOrWait(tc.t)
		if ok {
			return x
		}
		tc.submit(wait)
	}
}

// TryGetOrWait is Get for a Steps machine: it returns the oldest item
// and true or, with the mailbox empty, enrolls t as a receiver and
// returns the Block to wait with. A woken machine calls it again, since
// another receiver may have taken the item.
func (m *Mailbox[T]) TryGetOrWait(t *Thread) (x T, wait Action, ok bool) {
	if m.items.len() == 0 {
		return x, m.wq.WaitAction(t), false
	}
	return m.items.pop(), Action{}, true
}
