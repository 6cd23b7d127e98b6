package ghostcore

import (
	"ghost/internal/hw"
	"ghost/internal/kernel"
)

// Observer receives fine-grained protocol events from the ghOSt class:
// sequence-number advances, message lifecycle, latch/install transitions,
// transaction groups, and enclave destruction. Each invariant oracle
// (internal/check) registers as an observer of its own; with none
// registered every emission short-circuits on a nil-slice length test.
//
// All callbacks run synchronously inside the simulator event that caused
// them, so an observer sees a globally consistent snapshot.
type Observer interface {
	// Tseq fires when a thread message bumps (or, under a seeded
	// mutation, fails to bump) the thread's Tseq.
	Tseq(e *Enclave, t *kernel.Thread, old, new uint64, mt MsgType)
	// Aseq fires when a queue delivery advances an agent's Aseq.
	Aseq(e *Enclave, a *Agent, old, new uint64)
	// MsgIntent fires when the kernel decides to post a thread message,
	// before fault injection can drop, delay, or duplicate it.
	MsgIntent(e *Enclave, tid kernel.TID, mt MsgType)
	// MsgDelivered fires when a message lands in its queue. dup marks the
	// extra copy of a fault-duplicated message; delayed marks a delivery
	// that was previously announced via MsgDelayed.
	MsgDelivered(e *Enclave, m Message, dup, delayed bool)
	// MsgFaultDropped fires when a fault window swallows a message.
	MsgFaultDropped(e *Enclave, m Message)
	// MsgDelayed fires when a fault window defers a message's delivery.
	MsgDelayed(e *Enclave, m Message)
	// MsgDiscarded fires when a message is posted to a dead queue.
	MsgDiscarded(e *Enclave, m Message)
	// MsgDrained fires for every message an agent consumes.
	MsgDrained(e *Enclave, m Message)
	// Latched fires when a committed transaction latches t for cpu.
	Latched(e *Enclave, cpu hw.CPUID, t *kernel.Thread)
	// Unlatched fires whenever a latch is released; why names the path
	// (switch-in, displaced, recall, clear, destroy, ...).
	Unlatched(e *Enclave, cpu hw.CPUID, t *kernel.Thread, why string)
	// Installed fires when the scheduler switch-in consumes a latch.
	Installed(e *Enclave, cpu hw.CPUID, t *kernel.Thread)
	// TxnGroup fires once per TXNS_COMMIT(_ATOMIC) with final statuses.
	TxnGroup(e *Enclave, txns []*Txn, atomic bool)
	// Destroyed fires at the end of enclave teardown; threads is the
	// managed set captured before the CFS fallback ran.
	Destroyed(e *Enclave, cause error, threads []*kernel.Thread)
}

// AddObserver registers a protocol observer on the class.
func (g *Class) AddObserver(o Observer) { g.observers = append(g.observers, o) }

// Mutations are intentionally seeded protocol bugs, used only by the
// invariant checker's mutation tests to prove the oracles catch real
// defects. All fields are false in normal operation.
type Mutations struct {
	// SkipTseqBump posts THREAD_WAKEUP messages without advancing Tseq.
	SkipTseqBump bool
	// DropWakeup silently discards THREAD_WAKEUP messages outside any
	// fault window (a classic lost-wakeup bug).
	DropWakeup bool
	// DoubleLatch makes LatchedFor lie (report no pending latch) and
	// makes a commit to a held CPU overwrite its latch without handing
	// the old thread back (its install is cancelled), so the old thread
	// is silently lost.
	DoubleLatch bool
}

func (g *Class) obsTseq(e *Enclave, t *kernel.Thread, old, new uint64, mt MsgType) {
	for _, o := range g.observers {
		o.Tseq(e, t, old, new, mt)
	}
}

func (g *Class) obsAseq(e *Enclave, a *Agent, old, new uint64) {
	for _, o := range g.observers {
		o.Aseq(e, a, old, new)
	}
}

func (g *Class) obsMsgIntent(e *Enclave, tid kernel.TID, mt MsgType) {
	for _, o := range g.observers {
		o.MsgIntent(e, tid, mt)
	}
}

func (g *Class) obsMsgDelivered(e *Enclave, m Message, dup, delayed bool) {
	for _, o := range g.observers {
		o.MsgDelivered(e, m, dup, delayed)
	}
}

func (g *Class) obsMsgFaultDropped(e *Enclave, m Message) {
	for _, o := range g.observers {
		o.MsgFaultDropped(e, m)
	}
}

func (g *Class) obsMsgDelayed(e *Enclave, m Message) {
	for _, o := range g.observers {
		o.MsgDelayed(e, m)
	}
}

func (g *Class) obsMsgDiscarded(e *Enclave, m Message) {
	for _, o := range g.observers {
		o.MsgDiscarded(e, m)
	}
}

func (g *Class) obsMsgDrained(e *Enclave, m Message) {
	for _, o := range g.observers {
		o.MsgDrained(e, m)
	}
}

func (g *Class) obsLatched(e *Enclave, cpu hw.CPUID, t *kernel.Thread) {
	for _, o := range g.observers {
		o.Latched(e, cpu, t)
	}
}

func (g *Class) obsUnlatched(e *Enclave, cpu hw.CPUID, t *kernel.Thread, why string) {
	for _, o := range g.observers {
		o.Unlatched(e, cpu, t, why)
	}
}

func (g *Class) obsInstalled(e *Enclave, cpu hw.CPUID, t *kernel.Thread) {
	for _, o := range g.observers {
		o.Installed(e, cpu, t)
	}
}

func (g *Class) obsTxnGroup(e *Enclave, txns []*Txn, atomic bool) {
	for _, o := range g.observers {
		o.TxnGroup(e, txns, atomic)
	}
}

func (g *Class) obsDestroyed(e *Enclave, cause error, threads []*kernel.Thread) {
	for _, o := range g.observers {
		o.Destroyed(e, cause, threads)
	}
}
