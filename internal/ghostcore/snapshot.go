package ghostcore

import (
	"fmt"
	"sort"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Snapshot/restore support (DESIGN.md §3j). The ghOSt class serializes to
// a ClassRec. Restore is phased: RestoreEnclaveShells recreates the
// enclaves (with their original ids) before any thread or agent is
// re-spawned into them, and RestoreImage overlays every semantic field
// after the engine reset has erased construction side effects.

// HintRec is a serialized scheduling hint; only nil, int and string hints
// are serializable.
type HintRec struct {
	Kind string `json:"kind"` // "int" or "string"
	Int  int64  `json:"int,omitempty"`
	Str  string `json:"str,omitempty"`
}

// GhostThreadRec is the serialized ghOSt-side state of a managed thread.
type GhostThreadRec struct {
	TID           int        `json:"tid"`
	Queue         int        `json:"queue"` // index into the enclave's queues
	SW            StatusWord `json:"sw"`    // SW.Seq is the thread's Tseq
	Runnable      bool       `json:"runnable,omitempty"`
	RunnableSince int64      `json:"runnableSince"`
	Hint          *HintRec   `json:"hint,omitempty"`
}

// AgentRec is the serialized kernel-side agent handle.
type AgentRec struct {
	CPU      int        `json:"cpu"`
	TID      int        `json:"tid"`
	SW       StatusWord `json:"sw"` // SW.Seq is the agent's Aseq
	Attached bool       `json:"attached"`
	Queue    int        `json:"queue"` // index into the enclave's queues, -1 none
}

// QueueRec is a serialized message queue: its pending messages in FIFO
// order plus its wakeup configuration (agents referenced by home CPU).
type QueueRec struct {
	Name    string    `json:"name"`
	WakeCPU int       `json:"wakeCPU"` // -1 none
	SeqCPU  int       `json:"seqCPU"`  // -1 none
	Msgs    []Message `json:"msgs,omitempty"`
}

// EnclaveRec is one serialized enclave.
type EnclaveRec struct {
	ID              int              `json:"id"`
	CPUs            []int            `json:"cpus"`
	Queues          []QueueRec       `json:"queues"`
	Threads         []GhostThreadRec `json:"threads"`
	Agents          []AgentRec       `json:"agents"`
	DeliverTicks    bool             `json:"deliverTicks,omitempty"`
	WatchdogTimeout int64            `json:"watchdogTimeout,omitempty"`
	Tickless        bool             `json:"tickless,omitempty"`
}

// ClassRec is the full serialized ghOSt class state. Slots lists the
// installed latches; a latch in flight is named by its pending
// ghost.install event alone (SnapshotEvents). A thread's latch is
// derived from both.
type ClassRec struct {
	NextEncID int       `json:"nextEncID"`
	Slots     []int     `json:"slots"` // per-CPU installed latch's TID, 0 none
	Mut       Mutations `json:"mut"`

	TxnsOK     uint64 `json:"txnsOK"`
	BPFCommits uint64 `json:"bpfCommits"`

	Enclaves []EnclaveRec `json:"enclaves"`
}

// SaveImage serializes the ghOSt class. It fails with a descriptive error
// on state outside the snapshot envelope: destroyed enclaves, attached
// BPF programs, in-flight agent upgrades, non-int/string hints.
func (g *Class) SaveImage() (*ClassRec, error) {
	rec := &ClassRec{
		NextEncID:  g.nextEncID,
		Mut:        g.Mut,
		TxnsOK:     g.TxnsOK,
		BPFCommits: g.BPFCommits,
	}
	rec.Slots = make([]int, len(g.latches))
	for i, l := range g.latches {
		if l.t != nil && !l.inflight {
			rec.Slots[i] = int(l.t.TID())
		}
	}
	for _, e := range g.enclaves {
		if e.destroyed {
			return nil, fmt.Errorf("enclave %d has been destroyed (%v); destroyed enclaves are not snapshottable", e.id, e.destroyCause)
		}
		erec, err := e.saveRec()
		if err != nil {
			return nil, err
		}
		rec.Enclaves = append(rec.Enclaves, erec)
	}
	return rec, nil
}

// EachQueuedMessage calls fn for every undrained message sitting in the
// enclave's queues, with its queue, in queue order. Observers attached after a snapshot
// restore use it to seed history-dependent state (message-conservation
// ledgers) with the in-flight messages they never saw delivered.
func (e *Enclave) EachQueuedMessage(fn func(*Queue, Message)) {
	for _, q := range e.queues {
		n := q.Len()
		if n == 0 {
			continue
		}
		buf := make([]Message, n)
		q.copyPending(buf)
		for _, m := range buf {
			fn(q, m)
		}
	}
}

func (e *Enclave) saveRec() (EnclaveRec, error) {
	rec := EnclaveRec{
		ID:              e.id,
		DeliverTicks:    e.DeliverTicks,
		WatchdogTimeout: int64(e.WatchdogTimeout),
		Tickless:        e.tickless,
	}
	if e.bpf != nil {
		return rec, fmt.Errorf("enclave %d has a BPF program attached; BPF state is not snapshottable", e.id)
	}
	if e.upgradePending {
		return rec, fmt.Errorf("enclave %d has an agent upgrade in flight; upgrades are not snapshottable", e.id)
	}
	for _, id := range e.cpus.CPUs() {
		rec.CPUs = append(rec.CPUs, int(id))
	}
	qIndex := make(map[*Queue]int, len(e.queues))
	for i, q := range e.queues {
		qIndex[q] = i
		qr := QueueRec{Name: q.name, WakeCPU: -1, SeqCPU: -1}
		if q.wakeAgent != nil {
			qr.WakeCPU = int(q.wakeAgent.cpu)
		}
		if q.seqAgent != nil {
			qr.SeqCPU = int(q.seqAgent.cpu)
		}
		if n := q.Len(); n > 0 {
			qr.Msgs = make([]Message, n)
			q.copyPending(qr.Msgs)
		}
		rec.Queues = append(rec.Queues, qr)
	}
	for _, t := range e.Threads() {
		gt := gstate(t)
		if gt == nil {
			continue
		}
		tr := GhostThreadRec{
			TID:           int(t.TID()),
			SW:            gt.sw,
			Runnable:      gt.runnable,
			RunnableSince: int64(gt.runnableSince),
		}
		qi, ok := qIndex[gt.q]
		if !ok {
			return rec, fmt.Errorf("enclave %d: thread %v associated with an unknown queue", e.id, t)
		}
		tr.Queue = qi
		switch h := gt.hint.(type) {
		case nil:
		case int:
			tr.Hint = &HintRec{Kind: "int", Int: int64(h)}
		case string:
			tr.Hint = &HintRec{Kind: "string", Str: h}
		default:
			return rec, fmt.Errorf("enclave %d: thread %v has a non-int/string hint %T; not snapshottable", e.id, t, h)
		}
		rec.Threads = append(rec.Threads, tr)
	}
	for _, cpu := range agentCPUs(e.agents) {
		a := e.agents[cpu]
		ar := AgentRec{CPU: int(cpu), SW: a.sw, Attached: a.attached, Queue: -1}
		if a.thread != nil {
			ar.TID = int(a.thread.TID())
		}
		if a.queue != nil {
			qi, ok := qIndex[a.queue]
			if !ok {
				return rec, fmt.Errorf("enclave %d: agent on cpu%d consumes an unknown queue", e.id, cpu)
			}
			ar.Queue = qi
		}
		rec.Agents = append(rec.Agents, ar)
	}
	return rec, nil
}

// agentCPUs returns the map keys in ascending CPU order.
func agentCPUs(m map[hw.CPUID]*Agent) []hw.CPUID {
	out := make([]hw.CPUID, 0, len(m))
	for cpu := range m {
		out = append(out, cpu)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetNextEncID pins the id the next NewEnclave call will use, so restore
// reproduces enclave ids exactly. Never moves the counter backwards.
func (g *Class) SetNextEncID(id int) {
	if id < g.nextEncID {
		panic(fmt.Sprintf("ghostcore: SetNextEncID(%d) below current %d", id, g.nextEncID))
	}
	g.nextEncID = id
}

// RestoreEnclaveShells recreates the serialized enclaves (ids preserved)
// on a freshly built class, before threads or agents are re-spawned into
// them. Returns the shells in record order.
func (g *Class) RestoreEnclaveShells(rec *ClassRec) ([]*Enclave, error) {
	out := make([]*Enclave, 0, len(rec.Enclaves))
	for i := range rec.Enclaves {
		erec := &rec.Enclaves[i]
		g.SetNextEncID(erec.ID)
		var m kernel.Mask
		for _, id := range erec.CPUs {
			if id < 0 || id >= len(g.cpuOwner) {
				return nil, fmt.Errorf("enclave %d: CPU %d out of range [0, %d)", erec.ID, id, len(g.cpuOwner))
			}
			if g.cpuOwner[id] != nil {
				return nil, fmt.Errorf("enclave %d: CPU %d already in enclave %d", erec.ID, id, g.cpuOwner[id].id)
			}
			m.Set(hw.CPUID(id))
		}
		if m.Empty() {
			return nil, fmt.Errorf("enclave %d has no CPUs", erec.ID)
		}
		e := NewEnclave(g, m)
		e.DeliverTicks = erec.DeliverTicks
		if erec.WatchdogTimeout > 0 {
			e.EnableWatchdog(sim.Duration(erec.WatchdogTimeout))
		}
		out = append(out, e)
	}
	return out, nil
}

// RestoreImage overlays the serialized class state. Every enclave shell,
// agent and managed thread must already exist (RestoreEnclaveShells plus
// the re-spawn pass); the engine has been reset, so construction-time
// messages and sequence bumps are overwritten wholesale here.
func (g *Class) RestoreImage(rec *ClassRec) error {
	g.nextEncID = rec.NextEncID
	g.Mut = rec.Mut
	g.TxnsOK = rec.TxnsOK
	g.BPFCommits = rec.BPFCommits
	if len(rec.Slots) > len(g.latches) {
		return fmt.Errorf("ghost slots list %d CPUs, machine has %d", len(rec.Slots), len(g.latches))
	}
	// Free any latch the machine holds (none after an engine reset), then
	// write the image's with no observer event. A latch in flight comes
	// with its install event (SnapshotEvents).
	for cpu := range g.latches {
		if g.held.Has(hw.CPUID(cpu)) {
			g.unlatch(hw.CPUID(cpu), "restore")
		}
	}
	for i, tid := range rec.Slots {
		if tid == 0 {
			continue
		}
		t, err := g.latchable(hw.CPUID(i), int64(tid))
		if err != nil {
			return err
		}
		g.setLatch(latch{cpu: hw.CPUID(i), t: t, e: gstate(t).enc})
	}
	for i := range rec.Enclaves {
		erec := &rec.Enclaves[i]
		e := g.enclaveByID(erec.ID)
		if e == nil {
			return fmt.Errorf("enclave %d missing at restore", erec.ID)
		}
		if err := e.restoreRec(erec); err != nil {
			return err
		}
	}
	// Count each thread's pending messages as Drain counts them down. (A
	// delayed delivery is not queued yet, but Save refuses its closure.)
	for _, e := range g.enclaves {
		e.EachQueuedMessage(func(_ *Queue, m Message) {
			if gt := e.ghostOf(m.TID); gt != nil {
				gt.pendingMsgs++
			}
		})
	}
	return nil
}

func (e *Enclave) restoreRec(rec *EnclaveRec) error {
	if len(e.queues) != len(rec.Queues) {
		return fmt.Errorf("enclave %d: %d queues after re-spawn, snapshot has %d", e.id, len(e.queues), len(rec.Queues))
	}
	e.tickless = rec.Tickless
	agentAt := func(cpu int) *Agent {
		if cpu < 0 {
			return nil
		}
		return e.agents[hw.CPUID(cpu)]
	}
	for i, qr := range rec.Queues {
		q := e.queues[i]
		if q.name != qr.Name {
			return fmt.Errorf("enclave %d: queue %d is %q after re-spawn, snapshot has %q", e.id, i, q.name, qr.Name)
		}
		q.buf = nil
		q.head, q.tail = 0, 0
		for _, m := range qr.Msgs {
			q.enqueue(m)
		}
		q.wakeAgent = agentAt(qr.WakeCPU)
		q.seqAgent = agentAt(qr.SeqCPU)
		if (qr.WakeCPU >= 0 && q.wakeAgent == nil) || (qr.SeqCPU >= 0 && q.seqAgent == nil) {
			return fmt.Errorf("enclave %d: queue %q references a missing agent", e.id, q.name)
		}
	}
	for _, ar := range rec.Agents {
		a := e.agents[hw.CPUID(ar.CPU)]
		if a == nil {
			return fmt.Errorf("enclave %d: agent on cpu%d missing after re-spawn", e.id, ar.CPU)
		}
		a.sw = ar.SW
		a.attached = ar.Attached
		a.queue = nil
		if ar.Queue >= 0 {
			a.queue = e.queues[ar.Queue]
		}
	}
	for _, tr := range rec.Threads {
		t := e.threads[kernel.TID(tr.TID)]
		if t == nil {
			return fmt.Errorf("enclave %d: managed thread T%d missing after re-spawn", e.id, tr.TID)
		}
		gt := gstate(t)
		if gt == nil {
			return fmt.Errorf("enclave %d: thread T%d lost its ghOSt state", e.id, tr.TID)
		}
		gt.q = e.queues[tr.Queue]
		gt.sw = tr.SW
		gt.runnable = tr.Runnable
		gt.runnableSince = sim.Time(tr.RunnableSince)
		gt.pendingMsgs = 0
		gt.hint = nil
		if tr.Hint != nil {
			switch tr.Hint.Kind {
			case "int":
				gt.hint = int(tr.Hint.Int)
			case "string":
				gt.hint = tr.Hint.Str
			default:
				return fmt.Errorf("enclave %d: unknown hint kind %q", e.id, tr.Hint.Kind)
			}
		}
	}
	if len(e.threads) != len(rec.Threads) {
		return fmt.Errorf("enclave %d: %d managed threads after re-spawn, snapshot has %d", e.id, len(e.threads), len(rec.Threads))
	}
	return nil
}

// latchable resolves the thread a restored latch on cpu holds, or says
// why tid cannot hold it: it must be a ghOSt thread of an enclave that
// owns cpu, and neither it nor cpu may hold a latch already.
func (g *Class) latchable(cpu hw.CPUID, tid int64) (*kernel.Thread, error) {
	var gt *ghostThread
	t := g.k.Thread(kernel.TID(tid))
	if t != nil {
		gt = gstate(t)
	}
	switch {
	case gt == nil:
		return nil, fmt.Errorf("ghost latch cpu%d: ghOSt thread T%d missing", cpu, tid)
	case !gt.enc.cpus.Has(cpu):
		return nil, fmt.Errorf("ghost latch cpu%d: outside thread T%d's enclave %d", cpu, tid, gt.enc.id)
	case gt.latch != hw.NoCPU:
		return nil, fmt.Errorf("ghost latch cpu%d: thread T%d already latched on cpu%d", cpu, tid, gt.latch)
	case g.held.Has(cpu):
		return nil, fmt.Errorf("ghost latch cpu%d: already holds T%d", cpu, g.latches[cpu].t.TID())
	}
	return t, nil
}

// SnapshotEvents declares the ghOSt class's pre-bound events: a
// commit's install IPI, named [encID, tid, cpu, local, agentCPU], and
// an enclave's watchdog scan, named [encID] and held by the enclave. A
// commit leaves a latch in flight exactly while its install is
// pending, and the install's arguments name the whole latch, so
// loading one latches its thread in flight: it is refused as a slot is
// (latchable), and unless the thread is runnable, as a commit requires.
// A watchdog scan is refused for an enclave without a watchdog.
func (g *Class) SnapshotEvents() []sim.EventKind {
	enclave := func(args []int64, n int) (*Enclave, error) {
		if len(args) != n {
			return nil, fmt.Errorf("%d args, want %d", len(args), n)
		}
		if e := g.enclaveByID(int(args[0])); e != nil {
			return e, nil
		}
		return nil, fmt.Errorf("no enclave %d", args[0])
	}
	install := sim.EventKind{Name: "ghost.install", Fn: g.installFn,
		Save: func(a any) (sim.EventFields, bool) {
			l, local, agentCPU := a.(*latch), int64(0), int64(-1)
			if l.local {
				local = 1
			}
			if l.a != nil {
				agentCPU = int64(l.a.cpu)
			}
			return sim.EventFields{Args: []int64{int64(l.e.id), int64(l.t.TID()), int64(l.cpu), local, agentCPU}}, true
		},
		Load: func(f sim.EventFields) (any, error) {
			e, err := enclave(f.Args, 5)
			if err != nil {
				return nil, err
			}
			var a *Agent
			if f.Args[4] >= 0 {
				if a = e.agents[hw.CPUID(f.Args[4])]; a == nil {
					return nil, fmt.Errorf("enclave %d has no agent on cpu%d", e.id, f.Args[4])
				}
			}
			cpu := hw.CPUID(f.Args[2])
			t, err := g.latchable(cpu, f.Args[1])
			switch {
			case err != nil:
				return nil, err
			case gstate(t).enc != e:
				return nil, fmt.Errorf("T%d is not in enclave %d", f.Args[1], e.id)
			case t.State() != kernel.StateRunnable:
				return nil, fmt.Errorf("latched thread %v is not runnable", t)
			}
			g.setLatch(latch{cpu: cpu, t: t, inflight: true, e: e, local: f.Args[3] != 0, a: a})
			return &g.latches[cpu], nil
		},
		Pending: func(a any) bool { return a.(*latch).ipi.Pending() },
		Adopt:   func(a any, _ sim.Time, ev sim.Event) { a.(*latch).ipi = ev },
	}
	watchdog := sim.EventKind{Name: "ghost.watchdog", Fn: watchdogFire,
		Save: func(a any) (sim.EventFields, bool) {
			return sim.EventFields{Args: []int64{int64(a.(*Enclave).id)}}, true
		},
		Load: func(f sim.EventFields) (any, error) {
			e, err := enclave(f.Args, 1)
			if err == nil && e.WatchdogTimeout <= 0 {
				err = fmt.Errorf("enclave %d has no watchdog", e.id)
			}
			return e, err
		},
		Pending: func(a any) bool { return a.(*Enclave).watchdog.Pending() },
		Adopt:   func(a any, _ sim.Time, ev sim.Event) { a.(*Enclave).watchdog = ev },
	}
	return []sim.EventKind{install, watchdog}
}
