package check

import (
	"cmp"
	"errors"
	"slices"

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
// The OnCpu check keeps an index of the claims instead of reading every
// thread of every enclave, so each status-word event costs O(1) and a
// switch-in with no broken claim costs O(1). Outside restore, only two
// kernel paths set a status word's OnCpu claim, and each fires an event
// once the word is written: postThreadMsg fires Tseq and PickNext fires
// Installed. Both fold the thread's claim into the index and into a
// count per (enclave, CPU). A thread leaves its enclave with a
// THREAD_DEAD Tseq, or with no event when the enclave is destroyed,
// which fires Destroyed.
//
// Whether a claimed thread is Running is indexed the same way. The
// kernel takes a thread off its CPU only through its class (Enqueue,
// Dequeue or ThreadDetached), and for a ghOSt thread each of those posts
// a message, which fires Tseq; a thread becomes Running only at a
// switch-in, whose hook names it.
//
// Restore writes status words and thread states with no event, so the
// index starts at the first switch-in, from every thread of every live
// enclave.
type statusWordOracle struct {
	Base
	latchedOn []hw.CPUID // by TID: 1 + the CPU the thread believes it is latched on, 0 if none
	believers []int      // by CPU: threads that believe they are latched there

	seeded  bool
	ncpu    int
	word    []swClaim    // by TID
	perCPU  []int        // by enclave id × ncpu + CPU: the OnCpu claims on that CPU
	doubles int          // perCPU entries above one, plus claims on a CPU perCPU has no entry for
	stopped int          // claims whose thread is not Running
	sorted  []kernel.TID // report's scratch
}

// swClaim is one thread's OnCpu claim as last folded.
type swClaim struct {
	enc     int32    // 1 + the id of the claiming enclave, 0 if the word claims no CPU
	cpu     hw.CPUID // the claimed CPU, 0 without a claim
	stopped bool     // the thread is not Running
}

func newStatusWordOracle() *statusWordOracle { return &statusWordOracle{} }

func (o *statusWordOracle) Name() string { return "status-word" }

func (o *statusWordOracle) Tseq(e *ghostcore.Enclave, t *kernel.Thread, old, new uint64, mt ghostcore.MsgType) {
	if o.seeded {
		o.fold(e, t)
	}
}

// Destroyed drops e's claims: its threads fall back to CFS with no
// status-word event.
func (o *statusWordOracle) Destroyed(e *ghostcore.Enclave, cause error, threads []*kernel.Thread) {
	for tid := range o.word {
		if w := &o.word[tid]; w.enc == int32(e.ID())+1 {
			o.reclaim(w, 0, 0)
		}
	}
}

// SwitchIn checks that OnCpu threads are Running and that no CPU carries
// two OnCpu claims. The switch hook runs between events, so the status
// words it reads are consistent. A claim stays in the index until its
// word lapses, so a broken one is reported again at every switch-in.
func (o *statusWordOracle) SwitchIn(cpu *kernel.CPU, t *kernel.Thread) {
	if !o.seeded {
		o.seed()
	}
	if tid := int(t.TID()); tid < len(o.word) {
		o.setStopped(&o.word[tid], false) // t is Running now
	}
	if o.stopped > 0 || o.doubles > 0 {
		o.report()
	}
}

// seed starts the index from every thread of every live enclave.
func (o *statusWordOracle) seed() {
	o.seeded = true
	o.ncpu = o.c.Kernel().NumCPUs()
	for _, e := range o.c.Ghost().Enclaves() {
		for _, th := range e.Threads() {
			o.fold(e, th)
		}
	}
}

// fold brings t's claim in line with its status word and state.
func (o *statusWordOracle) fold(e *ghostcore.Enclave, t *kernel.Thread) {
	w := at(&o.word, int(t.TID()))
	var enc int32
	var cpu hw.CPUID
	if sw := e.StatusWord(t); sw != nil && sw.OnCPU {
		enc, cpu = int32(e.ID())+1, sw.CPU
	}
	if w.enc != enc || w.cpu != cpu {
		o.reclaim(w, enc, cpu)
	}
	if enc != 0 {
		o.setStopped(w, t.State() != kernel.StateRunning)
	}
}

// reclaim moves w's claim to CPU cpu of enclave enc-1, or clears it
// when enc is 0, keeping the counts in step.
func (o *statusWordOracle) reclaim(w *swClaim, enc int32, cpu hw.CPUID) {
	if w.enc != 0 {
		o.count(w, -1)
		o.setStopped(w, false)
	}
	w.enc, w.cpu = enc, cpu
	if enc != 0 {
		o.count(w, 1)
	}
}

// setStopped records whether w's thread has stopped Running; only fold
// marks one stopped, and only a claim.
func (o *statusWordOracle) setStopped(w *swClaim, stopped bool) {
	if w.stopped != stopped {
		w.stopped = stopped
		if stopped {
			o.stopped++
		} else {
			o.stopped--
		}
	}
}

// count adds delta (±1) to w's (enclave, CPU) claim count and keeps
// doubles in step with it.
func (o *statusWordOracle) count(w *swClaim, delta int) {
	if c := int(w.cpu); c < 0 || c >= o.ncpu {
		o.doubles += delta // no entry for this CPU: let report group it
		return
	}
	n := at(&o.perCPU, int(w.enc-1)*o.ncpu+int(w.cpu))
	switch {
	case delta > 0 && *n == 1:
		o.doubles++
	case delta < 0 && *n == 2:
		o.doubles--
	}
	*n += delta
}

// report reports the broken claims as a rescan of every thread would:
// enclaves in ascending id order, which is Enclaves() order (creation
// order, and ids only grow); in each, the claims whose thread is not
// Running in TID order, then every CPU two or more claims name, in CPU
// order. It runs only while a claim is broken, so it may walk and sort
// the index.
func (o *statusWordOracle) report() {
	s := o.sorted[:0]
	for tid, w := range o.word {
		if w.enc != 0 {
			s = append(s, kernel.TID(tid))
		}
	}
	o.sorted = s
	// Stable sorts keep TID order within an enclave, then within a CPU.
	slices.SortStableFunc(s, func(a, b kernel.TID) int { return cmp.Compare(o.word[a].enc, o.word[b].enc) })
	for len(s) > 0 {
		enc, n := o.word[s[0]].enc, 1
		for n < len(s) && o.word[s[n]].enc == enc {
			n++
		}
		claims := s[:n]
		s = s[n:]
		for _, tid := range claims {
			if st := o.c.k.Thread(tid).State(); st != kernel.StateRunning {
				o.c.Reportf(o, "enc%d thread %d status word claims OnCpu (cpu%d) but state is %v",
					enc-1, tid, o.word[tid].cpu, st)
			}
		}
		slices.SortStableFunc(claims, func(a, b kernel.TID) int { return cmp.Compare(o.word[a].cpu, o.word[b].cpu) })
		for len(claims) > 0 {
			cpu, n := o.word[claims[0]].cpu, 1
			for n < len(claims) && o.word[claims[n]].cpu == cpu {
				n++
			}
			if n > 1 {
				o.c.Reportf(o, "enc%d: %d threads claim OnCpu for cpu%d: %v",
					enc-1, n, cpu, slices.Clone(claims[:n]))
			}
			claims = claims[n:]
		}
	}
}

func (o *statusWordOracle) Latched(e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread, _ ghostcore.Commit) {
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
	if o.seeded {
		o.fold(e, t)
	}
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

func (o *conservationOracle) MsgDelivered(e *ghostcore.Enclave, _ *ghostcore.Queue, m ghostcore.Message, dup, delayed bool) {
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

func (o *conservationOracle) MsgDrained(e *ghostcore.Enclave, m ghostcore.Message, _ hw.CPUID) {
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

func (o *lostThreadOracle) MsgDelivered(e *ghostcore.Enclave, _ *ghostcore.Queue, m ghostcore.Message, dup, delayed bool) {
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

func (o *lostThreadOracle) MsgDrained(e *ghostcore.Enclave, m ghostcore.Message, _ hw.CPUID) {
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

// stuckRunOracle checks the kernel's completion rule: a thread running a
// Run request has its completion pending, so its work ends
// (kernel.CPU.Stuck). Mid-burn, only an SMT speed change re-times a
// segment, on the busy and idle edges of its sibling, and those edges
// come just before the sibling's switch and idle hooks: the oracle checks
// the sibling there, at O(1) per hook. Each stuck episode is reported
// once.
type stuckRunOracle struct {
	Base
	stuck kernel.Mask // CPUs in a reported episode
}

func newStuckRunOracle() *stuckRunOracle { return &stuckRunOracle{} }

func (o *stuckRunOracle) Name() string { return "no-stuck-run" }

func (o *stuckRunOracle) SwitchIn(cpu *kernel.CPU, _ *kernel.Thread) { o.checkSibling(cpu) }

func (o *stuckRunOracle) Idle(cpu *kernel.CPU) { o.checkSibling(cpu) }

func (o *stuckRunOracle) checkSibling(cpu *kernel.CPU) {
	id := cpu.Info.Sibling()
	if id == hw.NoCPU {
		return
	}
	sib := o.c.k.CPU(id)
	stuck := sib.Stuck()
	if o.stuck.Has(id) != stuck {
		o.stuck.SetTo(id, stuck)
		if stuck {
			o.c.Reportf(o, "cpu%d stuck: %v runs a Run request with no completion pending", id, sib.Curr())
		}
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
