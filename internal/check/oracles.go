package check

import (
	"cmp"
	"errors"
	"slices"
	"sort"

	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// seqOracle checks per-thread Tseq and per-agent Aseq monotonicity: each
// event advances the sequence by exactly one (§3.1 staleness detection
// depends on this).
type seqOracle struct {
	Base
	tseq []seqMark // by thread TID
	aseq []seqMark // by agent thread TID: each agent generation has its own
}

// seqMark is the sequence number the latest event advanced to.
type seqMark struct {
	last uint64
	seen bool
}

func newSeqOracle() *seqOracle { return &seqOracle{} }

func (o *seqOracle) Name() string { return "seq-monotonic" }

func (o *seqOracle) Tseq(e *ghostcore.Enclave, t *kernel.Thread, old, new uint64, mt ghostcore.MsgType) {
	if new != old+1 {
		o.c.Reportf(o, "enc%d thread %d tseq did not advance on %v: %d -> %d",
			e.ID(), t.TID(), mt, old, new)
	}
	if m := at(&o.tseq, int(t.TID())); m.seen && old != m.last {
		o.c.Reportf(o, "enc%d thread %d tseq regressed or skipped: last seen %d, event from %d",
			e.ID(), t.TID(), m.last, old)
	}
	o.tseq[t.TID()] = seqMark{new, true}
}

func (o *seqOracle) Aseq(e *ghostcore.Enclave, a *ghostcore.Agent, old, new uint64) {
	if new != old+1 {
		o.c.Reportf(o, "enc%d agent cpu%d aseq did not advance: %d -> %d",
			e.ID(), a.CPU(), old, new)
	}
	tid := a.Thread().TID()
	if m := at(&o.aseq, int(tid)); m.seen && old != m.last {
		o.c.Reportf(o, "enc%d agent cpu%d aseq regressed or skipped: last seen %d, event from %d",
			e.ID(), a.CPU(), m.last, old)
	}
	o.aseq[tid] = seqMark{new, true}
}

// statusWordOracle checks status-word/state-machine consistency: a
// status word claiming OnCpu implies the thread is Running on exactly
// one CPU, and a latch-slot install never silently overwrites another
// thread's latch (the displaced thread must be handed back first).
//
// The OnCpu check reads an index instead of every thread of every
// enclave. Outside restore, only two kernel paths set a status word's
// OnCPU claim: postThreadMsg, which fires Tseq first, and PickNext, which
// fires Installed. Those events mark the thread dirty; a switch-in folds
// the dirty threads into claims, drops the claims that lapsed and checks
// the rest. Restore writes status words with no event, so the first
// switch-in seeds the index with every thread of every live enclave.
type statusWordOracle struct {
	Base
	latchedOn []hw.CPUID // by TID: 1 + the CPU the thread believes it is latched on, 0 if none
	believers []int      // by CPU: threads that believe they are latched there

	seeded bool
	dirty  []swClaim // threads whose status word may have changed since the last switch-in
	claims []swClaim // threads whose status word claimed OnCpu, in TID order
	perCPU []int     // OnCpu claims per CPU within one enclave, zero between checks
}

// swClaim names a thread and the enclave of its latest status-word event.
type swClaim struct {
	e *ghostcore.Enclave
	t *kernel.Thread
}

func newStatusWordOracle() *statusWordOracle { return &statusWordOracle{} }

func (o *statusWordOracle) Name() string { return "status-word" }

func (o *statusWordOracle) Tseq(e *ghostcore.Enclave, t *kernel.Thread, old, new uint64, mt ghostcore.MsgType) {
	o.dirty = append(o.dirty, swClaim{e, t})
}

// SwitchIn checks that OnCpu threads are Running and that no CPU carries
// two OnCpu claims. The switch hook runs between events, so the status
// words it reads are consistent.
func (o *statusWordOracle) SwitchIn(cpu *kernel.CPU, t *kernel.Thread) {
	if !o.seeded {
		o.seeded = true
		o.perCPU = make([]int, o.c.Kernel().NumCPUs())
		for _, e := range o.c.Ghost().Enclaves() {
			for _, th := range e.Threads() {
				o.dirty = append(o.dirty, swClaim{e, th})
			}
		}
	}
	for _, d := range o.dirty {
		o.fold(d)
	}
	o.dirty = o.dirty[:0]
	live := o.claims[:0]
	for _, cl := range o.claims {
		if sw := cl.e.StatusWord(cl.t); sw != nil && sw.OnCPU && !cl.e.Destroyed() {
			live = append(live, cl)
		}
	}
	o.claims = live
	// Check per enclave in Enclaves() order. That is creation order, and
	// enclave ids only grow, so it is ascending id order.
	for last := -1; ; {
		var e *ghostcore.Enclave
		for _, cl := range o.claims {
			if id := cl.e.ID(); id > last && (e == nil || id < e.ID()) {
				e = cl.e
			}
		}
		if e == nil {
			return
		}
		o.checkEnclave(e)
		last = e.ID()
	}
}

// fold records d's thread in claims, in TID order, if its status word
// claims OnCpu.
func (o *statusWordOracle) fold(d swClaim) {
	if sw := d.e.StatusWord(d.t); sw == nil || !sw.OnCPU {
		return
	}
	i, found := slices.BinarySearchFunc(o.claims, d.t.TID(), func(cl swClaim, tid kernel.TID) int {
		return cmp.Compare(cl.t.TID(), tid)
	})
	if found {
		o.claims[i].e = d.e
		return
	}
	o.claims = slices.Insert(o.claims, i, d)
}

// checkEnclave checks e's OnCpu claims: each claimed thread must be
// Running, and no CPU may carry two claims.
func (o *statusWordOracle) checkEnclave(e *ghostcore.Enclave) {
	dup := false
	for _, cl := range o.claims {
		if cl.e != e {
			continue
		}
		sw := e.StatusWord(cl.t)
		if cl.t.State() != kernel.StateRunning {
			o.c.Reportf(o, "enc%d thread %d status word claims OnCpu (cpu%d) but state is %v",
				e.ID(), cl.t.TID(), sw.CPU, cl.t.State())
		}
		if c := int(sw.CPU); c >= 0 && c < len(o.perCPU) {
			o.perCPU[c]++
			dup = dup || o.perCPU[c] > 1
		} else {
			dup = true // no counter for this CPU: let the full grouping judge it
		}
	}
	for _, cl := range o.claims {
		if cl.e != e {
			continue
		}
		if c := int(e.StatusWord(cl.t).CPU); c >= 0 && c < len(o.perCPU) {
			o.perCPU[c] = 0
		}
	}
	if dup {
		o.reportDoubleClaims(e)
	}
}

// reportDoubleClaims reports every CPU of e that two or more OnCpu claims
// name, in CPU order. It runs only when checkEnclave found a duplicate,
// so its allocations stay off the clean path.
func (o *statusWordOracle) reportDoubleClaims(e *ghostcore.Enclave) {
	byCPU := make(map[hw.CPUID][]kernel.TID)
	for _, cl := range o.claims {
		if cl.e == e {
			c := e.StatusWord(cl.t).CPU
			byCPU[c] = append(byCPU[c], cl.t.TID())
		}
	}
	cpus := make([]int, 0, len(byCPU))
	for c := range byCPU {
		cpus = append(cpus, int(c))
	}
	sort.Ints(cpus)
	for _, c := range cpus {
		// claims is TID-ordered, so each list is too.
		if tids := byCPU[hw.CPUID(c)]; len(tids) > 1 {
			o.c.Reportf(o, "enc%d: %d threads claim OnCpu for cpu%d: %v",
				e.ID(), len(tids), c, tids)
		}
	}
}

func (o *statusWordOracle) Latched(e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread) {
	on := at(&o.latchedOn, int(t.TID()))
	if *on != 0 {
		if prev := *on - 1; prev != cpu {
			o.c.Reportf(o, "enc%d thread %d latched on cpu%d while still latched on cpu%d",
				e.ID(), t.TID(), cpu, prev)
		}
		o.believers[*on-1]--
	}
	*on = cpu + 1
	*at(&o.believers, int(cpu))++
}

func (o *statusWordOracle) Unlatched(e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread, why string) {
	if on := at(&o.latchedOn, int(t.TID())); *on != 0 {
		o.believers[*on-1]--
		*on = 0
	}
}

func (o *statusWordOracle) Installed(e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread) {
	o.dirty = append(o.dirty, swClaim{e, t})
	// A switch-in consumed cpu's latch slot; no other thread may still
	// believe it is latched there — that would mean a commit overwrote
	// the slot without handing the displaced thread back (double latch).
	if n := *at(&o.believers, int(cpu)); n == 0 || n == 1 && *at(&o.latchedOn, int(t.TID())) == cpu+1 {
		return
	}
	var stuck []kernel.TID
	for tid, on := range o.latchedOn {
		if on == cpu+1 && kernel.TID(tid) != t.TID() {
			stuck = append(stuck, kernel.TID(tid))
		}
	}
	o.c.Reportf(o, "enc%d: cpu%d installed thread %d while threads %v are still latched there (double latch)",
		e.ID(), cpu, t.TID(), stuck)
}

// atomicityOracle checks group-commit atomicity (§4.5): an atomic
// transaction group either commits every member or none.
type atomicityOracle struct{ Base }

func newAtomicityOracle() *atomicityOracle { return &atomicityOracle{} }

func (o *atomicityOracle) Name() string { return "txn-atomicity" }

func (o *atomicityOracle) TxnGroup(e *ghostcore.Enclave, txns []*ghostcore.Txn, atomic bool) {
	if !atomic || len(txns) == 0 {
		// Non-atomic groups only promise per-member statuses; check that
		// no member was left pending.
		for _, txn := range txns {
			if txn.Status == ghostcore.TxnPending {
				o.c.Reportf(o, "enc%d: TXNS_COMMIT left txn (tid %d cpu%d) pending",
					e.ID(), txn.TID, txn.CPU)
			}
		}
		return
	}
	committed := 0
	for _, txn := range txns {
		if txn.Status == ghostcore.TxnCommitted {
			committed++
		}
	}
	if committed != 0 && committed != len(txns) {
		o.c.Reportf(o, "enc%d: atomic group of %d committed only %d members",
			e.ID(), len(txns), committed)
	}
}

// msgCount is the ledger for one (enclave, thread, type) line.
type msgCount struct {
	intents   int // kernel decided to post
	delivered int // landed in a queue (incl. dup copies)
	dups      int // fault-duplicated extra copies
	dropped   int // swallowed by a fault window
	discarded int // posted to a dead queue
	pending   int // fault-delayed, not yet delivered
	drained   int // consumed by an agent
}

// msgRow holds one thread's ledger lines, indexed by message type.
// MsgTimerTick, the last type, is never recorded.
type msgRow [ghostcore.MsgTimerTick]msgCount

// encLedger is one enclave's ledger: a row per TID, grown on demand.
type encLedger struct {
	rows    []*msgRow
	excused bool // destroyed mid-run: teardown discards freely
}

// conservationOracle checks message-queue conservation: every message
// the kernel intends to post is delivered exactly once, or accountably
// dropped/discarded/delayed by a fault — never lost and never duplicated
// outside a fault window.
type conservationOracle struct {
	Base
	encs []encLedger // indexed by enclave id
}

func newConservationOracle() *conservationOracle { return &conservationOracle{} }

func (o *conservationOracle) Name() string { return "msg-conservation" }

func (o *conservationOracle) line(e *ghostcore.Enclave, tid kernel.TID, mt ghostcore.MsgType) *msgCount {
	row := at(&at(&o.encs, e.ID()).rows, int(tid))
	if *row == nil {
		*row = new(msgRow)
	}
	return &(*row)[mt]
}

func (o *conservationOracle) MsgIntent(e *ghostcore.Enclave, tid kernel.TID, mt ghostcore.MsgType) {
	if mt == ghostcore.MsgTimerTick || tid == 0 {
		return
	}
	o.line(e, tid, mt).intents++
}

func (o *conservationOracle) MsgDelivered(e *ghostcore.Enclave, m ghostcore.Message, dup, delayed bool) {
	if m.Type == ghostcore.MsgTimerTick || m.TID == 0 {
		return
	}
	mc := o.line(e, m.TID, m.Type)
	mc.delivered++
	if dup {
		mc.dups++
	}
	if delayed {
		mc.pending--
	}
	if mc.delivered-mc.dups > mc.intents {
		o.c.Reportf(o, "enc%d thread %d %v delivered %d times for %d intents (duplication outside a fault window)",
			e.ID(), m.TID, m.Type, mc.delivered-mc.dups, mc.intents)
	}
}

func (o *conservationOracle) MsgFaultDropped(e *ghostcore.Enclave, m ghostcore.Message) {
	if m.Type == ghostcore.MsgTimerTick || m.TID == 0 {
		return
	}
	o.line(e, m.TID, m.Type).dropped++
}

func (o *conservationOracle) MsgDelayed(e *ghostcore.Enclave, m ghostcore.Message) {
	if m.Type == ghostcore.MsgTimerTick || m.TID == 0 {
		return
	}
	o.line(e, m.TID, m.Type).pending++
}

func (o *conservationOracle) MsgDiscarded(e *ghostcore.Enclave, m ghostcore.Message) {
	if m.Type == ghostcore.MsgTimerTick || m.TID == 0 {
		return
	}
	o.line(e, m.TID, m.Type).discarded++
}

func (o *conservationOracle) MsgDrained(e *ghostcore.Enclave, m ghostcore.Message) {
	if m.Type == ghostcore.MsgTimerTick || m.TID == 0 {
		return
	}
	mc := o.line(e, m.TID, m.Type)
	mc.drained++
	if mc.drained > mc.delivered {
		o.c.Reportf(o, "enc%d thread %d %v drained %d times but only %d delivered",
			e.ID(), m.TID, m.Type, mc.drained, mc.delivered)
	}
}

func (o *conservationOracle) Destroyed(e *ghostcore.Enclave, cause error, threads []*kernel.Thread) {
	at(&o.encs, e.ID()).excused = true
}

func (o *conservationOracle) Finish(now sim.Time) {
	for id, el := range o.encs {
		if el.excused {
			continue
		}
		for tid, row := range el.rows {
			if row == nil {
				continue
			}
			for mt := range row {
				mc := &row[mt]
				if mc.intents+mc.dups != mc.delivered+mc.dropped+mc.discarded+mc.pending {
					o.c.Reportf(o, "enc%d thread %d %v not conserved: %d posted (+%d dup) vs %d delivered, %d dropped, %d discarded, %d in flight",
						id, tid, ghostcore.MsgType(mt), mc.intents, mc.dups,
						mc.delivered, mc.dropped, mc.discarded, mc.pending)
				}
			}
		}
	}
}

// lostThreadOracle checks no-lost-thread liveness: for every transition
// to runnable the kernel posts a message, so a thread that has been
// runnable-waiting past the threshold must have its runnability known
// SOMEWHERE — an undrained runnable message in a queue, a drain by the
// agent since it became runnable, or a latch (a committed install on the
// way). A policy that was informed and still starves a thread is a QoS
// problem the watchdog owns (§3.4), not a protocol violation; a thread
// nobody knows about is lost.
type lostThreadOracle struct {
	Base
	threads []lostMark // by TID
}

// lostMark is what the agent has been told about one thread.
type lostMark struct {
	excused  bool     // a message was fault-dropped: the agent is blind
	drained  bool     // informed is set
	queued   int      // undrained runnable-indicating messages
	informed sim.Time // last drain of a runnable-indicating message
}

func newLostThreadOracle() *lostThreadOracle { return &lostThreadOracle{} }

func (o *lostThreadOracle) Name() string { return "no-lost-thread" }

func (o *lostThreadOracle) MsgFaultDropped(e *ghostcore.Enclave, m ghostcore.Message) {
	if m.TID != 0 {
		// A legitimately dropped message means only the watchdog can
		// recover this thread; don't second-guess the fault window.
		at(&o.threads, int(m.TID)).excused = true
	}
}

func (o *lostThreadOracle) MsgDelivered(e *ghostcore.Enclave, m ghostcore.Message, dup, delayed bool) {
	if m.TID == 0 || !m.Runnable || delayed {
		// Delayed messages were already counted at MsgDelayed.
		return
	}
	at(&o.threads, int(m.TID)).queued++
}

func (o *lostThreadOracle) MsgDelayed(e *ghostcore.Enclave, m ghostcore.Message) {
	if m.TID == 0 || !m.Runnable {
		return
	}
	at(&o.threads, int(m.TID)).queued++
}

func (o *lostThreadOracle) MsgDrained(e *ghostcore.Enclave, m ghostcore.Message) {
	if m.TID == 0 || !m.Runnable {
		return
	}
	lm := at(&o.threads, int(m.TID))
	lm.informed, lm.drained = o.c.k.Now(), true
	if lm.queued > 0 {
		lm.queued--
	}
}

func (o *lostThreadOracle) Finish(now sim.Time) {
	threshold := o.c.LostThreshold
	for _, e := range o.c.Ghost().Enclaves() {
		if e.AgentsAttached() == 0 {
			// No agent generation attached (mid-upgrade at horizon end):
			// the upgrade timeout, not this oracle, bounds that state.
			continue
		}
		for _, t := range e.Threads() {
			runnable, latched := e.DebugThreadState(t)
			if !runnable || latched {
				// A latched thread has a committed install in flight.
				continue
			}
			tid := t.TID()
			lm := *at(&o.threads, int(tid))
			if lm.excused || lm.queued > 0 {
				continue
			}
			since := e.DebugRunnableSince(t)
			if lm.drained && lm.informed >= since {
				// The agent drained a runnable message after the thread
				// last became runnable: it knows, and scheduling order is
				// its prerogative.
				continue
			}
			if wait := now - since; wait > sim.Time(threshold) {
				o.c.Reportf(o, "enc%d thread %d lost: runnable for %v with no queued or drained wakeup (threshold %v)",
					e.ID(), tid, sim.Duration(wait), threshold)
			}
		}
	}
}

// fallbackOracle checks CFS-fallback liveness after enclave destruction
// (§3.4): destruction must carry a typed cause, and every thread the
// enclave managed must leave the ghOSt class (back to CFS) or be dead.
type fallbackOracle struct {
	Base
	records []fallbackRecord
}

type fallbackRecord struct {
	enc     int
	threads []*kernel.Thread
}

func newFallbackOracle() *fallbackOracle { return &fallbackOracle{} }

func (o *fallbackOracle) Name() string { return "cfs-fallback" }

func (o *fallbackOracle) Destroyed(e *ghostcore.Enclave, cause error, threads []*kernel.Thread) {
	if cause == nil {
		o.c.Reportf(o, "enc%d destroyed with nil cause", e.ID())
	} else if !errors.Is(cause, ghostcore.ErrWatchdog) &&
		!errors.Is(cause, ghostcore.ErrAgentCrash) &&
		!errors.Is(cause, ghostcore.ErrUpgradeTimeout) &&
		!errors.Is(cause, ghostcore.ErrDestroyed) {
		o.c.Reportf(o, "enc%d destroyed with untyped cause %q", e.ID(), cause)
	}
	o.checkFallback(e.ID(), threads)
	o.records = append(o.records, fallbackRecord{enc: e.ID(), threads: threads})
}

func (o *fallbackOracle) checkFallback(enc int, threads []*kernel.Thread) {
	ghostClass := kernel.Class(o.c.Ghost())
	for _, t := range threads {
		if t.State() == kernel.StateDead {
			continue
		}
		if t.Class() == ghostClass {
			o.c.Reportf(o, "enc%d thread %d stranded in the ghost class after destroy", enc, t.TID())
		}
	}
}

func (o *fallbackOracle) Finish(now sim.Time) {
	// Re-verify at horizon end: fallen-back threads must not have drifted
	// back under a destroyed enclave's class.
	for _, r := range o.records {
		o.checkFallback(r.enc, r.threads)
	}
}

// at returns &(*s)[i], growing *s with zero values to hold index i.
func at[T any](s *[]T, i int) *T {
	if i >= len(*s) {
		grow(s, i)
	}
	return &(*s)[i]
}

// grow is at's cold path. Tables grow to the largest index seen, never
// to kernel.MaxTID.
//
//go:noinline
func grow[T any](s *[]T, i int) { *s = append(*s, make([]T, i+1-len(*s))...) }
