package ghostcore

import "ghost/internal/hw"

// Pop removes and returns the oldest message, so ring tests can consume
// part of a queue and make head and tail wrap at offsets Drain never
// leaves.
func (q *Queue) Pop() (Message, bool) {
	if q.tail == q.head {
		return Message{}, false
	}
	m := q.buf[q.head&uint64(len(q.buf)-1)]
	q.head++
	q.uncount(m)
	q.enc.g.obsMsgDrained(q.enc, m, hw.NoCPU)
	return m, true
}
