// Package ghostcore implements the kernel side of ghOSt (SOSP '21): the
// ghOSt scheduling class, enclaves, kernel-to-agent message queues with
// sequence numbers, status words, the transaction commit API with group
// commits, the watchdog, and agent crash/upgrade handling.
//
// It corresponds to the paper's "ghOSt kernel scheduling class"; the
// userspace side (agents and policies) lives in internal/agentsdk and
// internal/policies.
package ghostcore

import (
	"fmt"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// MsgType enumerates the kernel-to-agent messages of Table 1.
type MsgType int

// Message types (Table 1).
const (
	MsgThreadCreated MsgType = iota
	MsgThreadBlocked
	MsgThreadPreempted
	MsgThreadYield
	MsgThreadDead
	MsgThreadWakeup
	MsgThreadAffinity
	MsgTimerTick
)

func (m MsgType) String() string {
	switch m {
	case MsgThreadCreated:
		return "THREAD_CREATED"
	case MsgThreadBlocked:
		return "THREAD_BLOCKED"
	case MsgThreadPreempted:
		return "THREAD_PREEMPTED"
	case MsgThreadYield:
		return "THREAD_YIELD"
	case MsgThreadDead:
		return "THREAD_DEAD"
	case MsgThreadWakeup:
		return "THREAD_WAKEUP"
	case MsgThreadAffinity:
		return "THREAD_AFFINITY"
	case MsgTimerTick:
		return "TIMER_TICK"
	}
	return fmt.Sprintf("MsgType(%d)", int(m))
}

// Message is one kernel-to-agent notification. Thread messages carry the
// thread's sequence number Tseq at posting time (§3.1); agents echo the
// latest Tseq in transactions to detect staleness.
type Message struct {
	Type MsgType
	TID  kernel.TID
	Seq  uint64   // Tseq for thread messages
	CPU  hw.CPUID // for TIMER_TICK and placement hints
	// Runnable is set on THREAD_CREATED when the new thread is already
	// runnable, and on THREAD_AFFINITY to carry no meaning (mask is read
	// from the thread).
	Runnable bool
	// Posted is the enqueue timestamp, for delivery-latency measurement.
	Posted sim.Time
}

// Queue is a ghOSt message queue in "shared memory": the kernel produces
// messages, an agent consumes them. A queue may be configured to wake an
// agent on enqueue (per-CPU model) or be polled (centralized model).
//
// Like the real ghOSt queues — preallocated shared-memory rings the
// kernel writes and the agent reads — the simulated queue is a pooled
// power-of-two ring buffer: post/deliver never allocate in steady state,
// Drain hands back a reusable scratch slice, and consuming a message
// never retains the backing array (the old `msgs = msgs[1:]` churn).
type Queue struct {
	enc  *Enclave
	name string

	// Ring of pending messages: buf[head&mask .. tail&mask), len(buf) a
	// power of two. head and tail are free-running counters, so
	// tail-head is the pending count and indexes never normalize.
	buf  []Message
	head uint64
	tail uint64

	// scratch is the reusable Drain output buffer; grown to the ring's
	// high-water mark once, then recycled on every Drain.
	scratch []Message

	// wakeAgent, when set, is woken whenever a message is produced
	// (CONFIG_QUEUE_WAKEUP).
	wakeAgent *Agent
	// seqAgent is the agent whose Aseq advances on every post to this
	// queue; usually the consumer.
	seqAgent *Agent

	dead bool
}

// Name returns the queue's diagnostic name.
func (q *Queue) Name() string { return q.name }

// Len returns the number of pending messages.
func (q *Queue) Len() int { return int(q.tail - q.head) }

// enqueue files m at the ring tail, growing the ring on the cold path.
func (q *Queue) enqueue(m Message) {
	if int(q.tail-q.head) == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail&uint64(len(q.buf)-1)] = m
	q.tail++
}

// grow doubles the ring (cold path: each capacity is reached at most
// once per queue), unwrapping the pending messages to the front.
func (q *Queue) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]Message, n)
	c := q.copyPending(nb)
	q.buf = nb
	q.head, q.tail = 0, uint64(c)
}

// copyPending copies the pending messages into dst in FIFO order and
// returns how many there were. dst must hold Len() messages.
func (q *Queue) copyPending(dst []Message) int {
	n := int(q.tail - q.head)
	if n == 0 {
		return 0
	}
	h := int(q.head & uint64(len(q.buf)-1))
	first := len(q.buf) - h
	if first > n {
		first = n
	}
	copy(dst, q.buf[h:h+first])
	copy(dst[first:n], q.buf[:n-first])
	return n
}

// post timestamps a message and runs it through the fault injector (if
// any) before delivery: a dropped message is a real lost wakeup — the
// agent never learns about it and only the watchdog can recover — a
// delayed message becomes visible to the agent later, and a duplicated
// message is delivered twice (agents must tolerate stale sequences).
func (q *Queue) post(m Message) {
	if q.dead {
		q.uncount(m)
		q.enc.g.obsMsgDiscarded(q.enc, m)
		return
	}
	k := q.enc.k
	m.Posted = k.Now()
	if in := k.Faults(); in != nil {
		drop, dup, delay := in.OnMessagePost(m.Posted, q.enc.id)
		switch {
		case drop:
			q.uncount(m)
			q.enc.g.obsMsgFaultDropped(q.enc, m)
			return
		case delay > 0:
			q.enc.g.obsMsgDelayed(q.enc, m)
			k.Engine().After(delay, func() { q.deliver(m, false, true) })
			return
		case dup:
			q.deliver(m, false, false)
			if gt := q.enc.ghostOf(m.TID); gt != nil {
				gt.pendingMsgs++
			}
			q.deliver(m, true, false)
			return
		}
	}
	q.deliver(m, false, false)
}

// uncount takes a message that leaves the queue, or never reaches it,
// off its thread's pending count (the count AssociateQueue checks).
func (q *Queue) uncount(m Message) {
	if gt := q.enc.ghostOf(m.TID); gt != nil {
		gt.pendingMsgs--
	}
}

// deliver appends a message, bumps Aseq, and wakes/pokes the consumer.
// dup marks the second copy of a fault-duplicated message; delayed marks
// a delivery previously deferred by a fault window.
func (q *Queue) deliver(m Message, dup, delayed bool) {
	if q.dead {
		q.uncount(m)
		return
	}
	q.enqueue(m)
	g := q.enc.g
	g.obsMsgDelivered(q.enc, q, m, dup, delayed)
	if q.seqAgent != nil {
		q.seqAgent.sw.Seq++
		g.obsAseq(q.enc, q.seqAgent, q.seqAgent.sw.Seq-1, q.seqAgent.sw.Seq)
	}
	if q.wakeAgent != nil && q.wakeAgent.thread != nil {
		k := q.enc.k
		if q.wakeAgent.thread.State() == kernel.StateBlocked {
			k.Wake(q.wakeAgent.thread)
		} else {
			k.Poke(q.wakeAgent.thread)
		}
	}
}

// Drain removes and returns all pending messages for the agent on cpu,
// which observers see consume them. The returned slice is
// the queue's reusable scratch buffer: it is valid until the next Drain
// of the same queue, and callers must not retain or append to it —
// exactly the read-then-release discipline the real shared-memory ring
// imposes on agents.
func (q *Queue) Drain(cpu hw.CPUID) []Message {
	n := int(q.tail - q.head)
	if cap(q.scratch) < n {
		q.growScratch(n)
	}
	out := q.scratch[:n]
	q.copyPending(out)
	q.head = q.tail
	g := q.enc.g
	for _, m := range out {
		q.uncount(m)
		g.obsMsgDrained(q.enc, m, cpu)
	}
	return out
}

// growScratch sizes the Drain buffer to the ring's capacity class (cold
// path, at most once per capacity).
func (q *Queue) growScratch(n int) {
	c := 16
	for c < n {
		c *= 2
	}
	q.scratch = make([]Message, 0, c)
}
