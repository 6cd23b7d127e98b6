package kernel

import (
	"fmt"

	"ghost/internal/hw"
	"ghost/internal/sim"
)

// Snapshot/restore support (DESIGN.md §3j). The kernel serializes to a
// KernelImage of plain records; restore happens in two phases driven by
// internal/snap: first every live thread is re-spawned (with its TID
// pinned and its body built exactly as at spawn), then — after the
// engine has been Reset, erasing all spawn side effects — RestoreImage
// overlays every semantic field verbatim, including the request each
// thread is parked in, which its Steps machine reads through Thread.Ran.
// Each pending kernel-owned event is one row of SnapshotEvents, which
// names it at save and rebuilds it at restore.

// CPURec is the serialized per-CPU state. Whether the CPU is switching,
// burning or due a scheduling pass is not stored: its pending switch
// end, completion or pass says so.
type CPURec struct {
	ID          int     `json:"id"`
	Curr        int     `json:"curr"` // running thread TID, 0 idle
	NeedResched bool    `json:"needResched,omitempty"`
	SegStart    int64   `json:"segStart"`
	Speed       float64 `json:"speed"`
	AccBusy     bool    `json:"accBusy,omitempty"`
}

// BodyRec is the serialized resumable-body descriptor of a thread.
type BodyRec struct {
	Kind string  `json:"kind"`
	Key  string  `json:"key,omitempty"`
	Args []int64 `json:"args,omitempty"`
	Rand *uint64 `json:"rand,omitempty"`
}

// CFSThreadRec is the serialized per-thread CFS state.
type CFSThreadRec struct {
	Vruntime float64 `json:"vruntime"`
	AcctMark int64   `json:"acctMark"`
	SliceRan int64   `json:"sliceRan"`
	Seq      uint64  `json:"seq"`
}

// MQThreadRec is the serialized per-thread MicroQuanta state.
type MQThreadRec struct {
	Budget      int64 `json:"budget"`
	PeriodStart int64 `json:"periodStart"`
	Throttled   bool  `json:"throttled,omitempty"`
	AcctMark    int64 `json:"acctMark"`
}

// ThreadRec is the serialized state of one live thread. A running
// thread's CPU is the one whose record names it current.
type ThreadRec struct {
	TID      int    `json:"tid"`
	Name     string `json:"name"`
	Class    string `json:"class"`
	Nice     int    `json:"nice,omitempty"`
	Affinity []int  `json:"affinity"`
	Tag      *int64 `json:"tag,omitempty"`

	State     int `json:"state"`
	TargetCPU int `json:"targetCPU"`
	LastCPU   int `json:"lastCPU"`

	CurKind     int   `json:"curKind"`
	PendingWork int64 `json:"pendingWork"`
	WakePending bool  `json:"wakePending,omitempty"`
	Poked       bool  `json:"poked,omitempty"`

	CPUTime  int64 `json:"cpuTime"`
	WakeTime int64 `json:"wakeTime"`

	Body *BodyRec      `json:"body,omitempty"`
	CFS  *CFSThreadRec `json:"cfs,omitempty"`
	MQ   *MQThreadRec  `json:"mq,omitempty"`
}

// CFSRqRec is one CPU's serialized CFS runqueue: the heap array verbatim
// (TIDs in array order) plus its floor.
type CFSRqRec struct {
	Threads []int   `json:"threads,omitempty"`
	MinVrun float64 `json:"minVrun"`
}

// CFSRec is the serialized CFS class state.
type CFSRec struct {
	RQs       []CFSRqRec `json:"rqs"`
	Seq       uint64     `json:"seq"`
	IdleStart []int64    `json:"idleStart"`
	AvgIdle   []int64    `json:"avgIdle"`
}

// MQRec is the serialized MicroQuanta class state.
type MQRec struct {
	Period int64 `json:"period"`
	Quanta int64 `json:"quanta"`
	Queue  []int `json:"queue,omitempty"`
}

// AgentClassRec is the serialized agent-class state.
type AgentClassRec struct {
	RQs [][]int `json:"rqs"`
}

// KernelImage is the full serialized kernel state.
type KernelImage struct {
	NextTID  int            `json:"nextTID"`
	Tickless []bool         `json:"tickless"`
	CPUs     []CPURec       `json:"cpus"`
	Threads  []ThreadRec    `json:"threads"`
	CFS      *CFSRec        `json:"cfs,omitempty"`
	MQ       *MQRec         `json:"mq,omitempty"`
	Agents   *AgentClassRec `json:"agents,omitempty"`
}

func tids(ts []*Thread) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = int(t.tid)
	}
	return out
}

func maskCPUs(m Mask) []int {
	ids := m.CPUs()
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

func maskFromCPUs(ids []int) Mask {
	var m Mask
	for _, id := range ids {
		m.Set(hw.CPUID(id))
	}
	return m
}

// SaveImage serializes the kernel, its CPUs, every live thread and the
// kernel-registered baseline classes (CFS, MicroQuanta, agent class). The
// ghOSt class serializes separately (internal/ghostcore). It returns a
// descriptive error naming the culprit when some state is not
// serializable — an unregistered thread body, a non-integer Tag.
func (k *Kernel) SaveImage() (*KernelImage, error) {
	if k.shutdown {
		return nil, fmt.Errorf("kernel has been shut down")
	}
	img := &KernelImage{
		NextTID:  int(k.nextTID),
		Tickless: append([]bool(nil), k.tickless...),
	}
	for _, c := range k.cpus {
		rec := CPURec{
			ID:          int(c.ID),
			NeedResched: c.needResched,
			SegStart:    int64(c.segStart),
			Speed:       c.speed,
			AccBusy:     c.accBusy,
		}
		if c.curr != nil {
			rec.Curr = int(c.curr.tid)
		}
		img.CPUs = append(img.CPUs, rec)
	}
	for _, t := range k.live {
		if t.state == StateDead {
			continue
		}
		rec, err := t.saveRec()
		if err != nil {
			return nil, err
		}
		img.Threads = append(img.Threads, rec)
	}
	if c, ok := k.Class("cfs").(*CFS); ok && c != nil {
		img.CFS = c.saveRec()
	}
	if m, ok := k.Class("microquanta").(*MicroQuanta); ok && m != nil {
		img.MQ = m.saveRec()
	}
	if a, ok := k.Class("agent").(*AgentClass); ok && a != nil {
		img.Agents = &AgentClassRec{RQs: make([][]int, len(a.rqs))}
		for i, rq := range a.rqs {
			img.Agents.RQs[i] = tids(rq)
		}
	}
	return img, nil
}

func (t *Thread) saveRec() (ThreadRec, error) {
	rec := ThreadRec{
		TID:         int(t.tid),
		Name:        t.name,
		Class:       t.class.Name(),
		Nice:        t.nice,
		Affinity:    maskCPUs(t.affinity),
		State:       int(t.state),
		TargetCPU:   int(t.targetCPU),
		LastCPU:     int(t.lastCPU),
		CurKind:     int(t.curKind),
		PendingWork: int64(t.pendingWork),
		WakePending: t.wakePending,
		Poked:       t.poked,
		CPUTime:     int64(t.cpuTime),
		WakeTime:    int64(t.wakeTime),
	}
	switch tag := t.Tag.(type) {
	case nil:
	case int:
		v := int64(tag)
		rec.Tag = &v
	default:
		return rec, fmt.Errorf("thread %v: non-integer Tag %T is not serializable", t, t.Tag)
	}
	if t.body == nil {
		return rec, fmt.Errorf("thread %v has no registered resumable body (see snap.RegisterBody)", t)
	}
	if t.stop != nil {
		return rec, fmt.Errorf("thread %v: body %q runs on a coroutine; only Steps machines are snapshotted", t, t.body.Kind)
	}
	if !parked(t.curKind) {
		return rec, fmt.Errorf("thread %v parked in unexpected action %d", t, t.curKind)
	}
	rec.Body = &BodyRec{Kind: t.body.Kind, Key: t.body.Key, Args: append([]int64(nil), t.body.Args...)}
	if t.body.Rand != nil {
		st := t.body.Rand.State()
		rec.Body.Rand = &st
	}
	switch t.class.Name() {
	case "cfs":
		rec.CFS = &CFSThreadRec{
			Vruntime: t.cfs.vruntime,
			AcctMark: int64(t.cfs.acctMark),
			SliceRan: int64(t.cfs.sliceRan),
			Seq:      t.cfs.seq,
		}
	case "microquanta":
		rec.MQ = &MQThreadRec{
			Budget:      int64(t.mq.budget),
			PeriodStart: int64(t.mq.periodStart),
			Throttled:   t.mq.throttled,
			AcctMark:    int64(t.mq.acctMark),
		}
	}
	return rec, nil
}

func (c *CFS) saveRec() *CFSRec {
	rec := &CFSRec{Seq: c.seq}
	for _, rq := range c.rqs {
		rec.RQs = append(rec.RQs, CFSRqRec{Threads: tids(rq.threads), MinVrun: rq.minVrun})
	}
	for _, v := range c.idleStart {
		rec.IdleStart = append(rec.IdleStart, int64(v))
	}
	for _, v := range c.avgIdle {
		rec.AvgIdle = append(rec.AvgIdle, int64(v))
	}
	return rec
}

func (m *MicroQuanta) saveRec() *MQRec {
	return &MQRec{Period: int64(m.Period), Quanta: int64(m.Quanta), Queue: tids(m.queue)}
}

// parked reports whether a live thread can rest in action kind k between
// events: running, blocked, spinning or waiting to step on a CPU.
func parked(k actionKind) bool {
	return k == actRun || k == actBlock || k == actSpinIdle || k == actStepPending
}

// SetNextTID pins the TID the next spawn will receive, so restore can
// reproduce TID assignment exactly (including gaps left by dead threads).
// It never moves the counter backwards, nor past MaxTID.
func (k *Kernel) SetNextTID(tid TID) error {
	if tid < k.nextTID {
		return fmt.Errorf("next TID %d below current %d", tid, k.nextTID)
	}
	if tid >= MaxTID {
		return fmt.Errorf("TID %d out of range [1, %d)", tid, MaxTID)
	}
	k.nextTID = tid
	return nil
}

// RestoreImage overlays the serialized kernel state onto a freshly built
// kernel whose threads have already been re-spawned (TIDs pinned) and
// whose engine has been Reset. Every semantic field the re-spawn touched
// is overwritten here, erasing construction side effects.
func (k *Kernel) RestoreImage(img *KernelImage) error {
	// The re-spawn pass left nextTID just above every restored TID; the
	// image may only move it further, and not past MaxTID.
	if err := k.SetNextTID(TID(img.NextTID)); err != nil {
		return err
	}
	copy(k.tickless, img.Tickless)
	for i := range img.Threads {
		rec := &img.Threads[i]
		t := k.Thread(TID(rec.TID))
		if t == nil {
			return fmt.Errorf("thread T%d missing after re-spawn", rec.TID)
		}
		if err := t.restoreRec(rec); err != nil {
			return err
		}
	}
	// Each CPU's current thread is running and current there only. The
	// switch end, completion and scheduling pass pending on a CPU set its
	// state when the events are restored (SnapshotEvents).
	for i := range img.CPUs {
		rec := &img.CPUs[i]
		if rec.ID < 0 || rec.ID >= len(k.cpus) {
			return fmt.Errorf("cpu record %d: CPU id %d out of range [0, %d)", i, rec.ID, len(k.cpus))
		}
		c := k.cpus[rec.ID]
		c.curr = nil
		if rec.Curr != 0 {
			t := k.Thread(TID(rec.Curr))
			switch {
			case t == nil:
				return fmt.Errorf("cpu%d: running thread T%d missing", rec.ID, rec.Curr)
			case t.state != StateRunning:
				return fmt.Errorf("cpu%d: current thread %v is not running", rec.ID, t)
			case t.cpu != nil:
				return fmt.Errorf("cpu%d: %v is already current on cpu%d", rec.ID, t, t.cpu.ID)
			}
			c.curr, t.cpu = t, c
		}
		c.switching = false
		c.syncIdle()
		c.needResched = rec.NeedResched
		c.setReschedPending(false)
		c.segStart = sim.Time(rec.SegStart)
		c.speed = rec.Speed
		c.accBusy = rec.AccBusy
		c.completion = sim.Event{}
	}
	for i := range img.Threads {
		if t := k.Thread(TID(img.Threads[i].TID)); t.state == StateRunning && (t.cpu == nil || t.cpu.curr != t) {
			return fmt.Errorf("%v is running but current on no CPU", t)
		}
	}
	// A registered class's queues are rebuilt only from its record, so
	// the record must be there.
	c, _ := k.Class("cfs").(*CFS)
	if (c == nil) != (img.CFS == nil) {
		return fmt.Errorf("snapshot has CFS state: %v; machine has a cfs class: %v", img.CFS != nil, c != nil)
	}
	if c != nil {
		if err := c.restoreRec(img.CFS); err != nil {
			return err
		}
	}
	m, _ := k.Class("microquanta").(*MicroQuanta)
	if (m == nil) != (img.MQ == nil) {
		return fmt.Errorf("snapshot has MicroQuanta state: %v; machine has a microquanta class: %v", img.MQ != nil, m != nil)
	}
	if m != nil {
		m.Period = sim.Duration(img.MQ.Period)
		m.Quanta = sim.Duration(img.MQ.Quanta)
		m.queue = m.queue[:0]
		for _, tid := range img.MQ.Queue {
			t := k.Thread(TID(tid))
			switch {
			case t == nil:
				return fmt.Errorf("microquanta queue: thread T%d missing", tid)
			case t.class != Class(m) || t.state != StateRunnable || t.mq.throttled:
				return fmt.Errorf("microquanta queue: %v is not an unthrottled runnable MicroQuanta thread", t)
			case t.mq.onRq:
				return fmt.Errorf("microquanta queue: %v listed twice", t)
			}
			t.mq.onRq = true
			m.queue = append(m.queue, t)
		}
	}
	if img.Agents != nil {
		a, ok := k.Class("agent").(*AgentClass)
		if !ok || a == nil {
			return fmt.Errorf("snapshot has agent-class state but no agent class is registered")
		}
		for i := range a.rqs {
			a.rqs[i] = nil
		}
		for i, rq := range img.Agents.RQs {
			for _, tid := range rq {
				t := k.Thread(TID(tid))
				if t == nil {
					return fmt.Errorf("agent rq %d: thread T%d missing", i, tid)
				}
				a.rqs[i] = append(a.rqs[i], t)
			}
		}
	}
	return nil
}

func (t *Thread) restoreRec(rec *ThreadRec) error {
	t.nice = rec.Nice
	t.affinity = maskFromCPUs(rec.Affinity)
	if rec.Tag != nil {
		t.Tag = int(*rec.Tag)
	}
	t.state = State(rec.State)
	t.cpu = nil // set from the CPU records
	t.targetCPU = hw.CPUID(rec.TargetCPU)
	t.lastCPU = hw.CPUID(rec.LastCPU)
	t.curKind = actionKind(rec.CurKind)
	if !parked(t.curKind) {
		return fmt.Errorf("thread %v: action kind %d", t, rec.CurKind)
	}
	if rec.PendingWork < 0 {
		return fmt.Errorf("thread %v: negative pending work %d", t, rec.PendingWork)
	}
	if t.curKind == actRun && rec.PendingWork == 0 {
		// Work ends only when its completion fires, with the next request.
		return fmt.Errorf("thread %v: a Run request with no work left", t)
	}
	t.pendingWork = sim.Duration(rec.PendingWork)
	t.wakePending = rec.WakePending
	t.poked = rec.Poked
	t.cpuTime = sim.Duration(rec.CPUTime)
	t.wakeTime = sim.Time(rec.WakeTime)
	// The class queue lists, restored after every thread, set these.
	t.cfs.onRq, t.cfs.rqCPU, t.cfs.idx = false, hw.NoCPU, -1
	t.mq.onRq = false
	if rec.Body != nil && rec.Body.Rand != nil {
		if t.body == nil || t.body.Rand == nil {
			return fmt.Errorf("thread %v: snapshot has a body random stream but the re-spawned body has none", t)
		}
		t.body.Rand.SetState(*rec.Body.Rand)
	}
	if rec.CFS != nil {
		t.cfs.vruntime = rec.CFS.Vruntime
		t.cfs.acctMark = sim.Duration(rec.CFS.AcctMark)
		t.cfs.sliceRan = sim.Duration(rec.CFS.SliceRan)
		t.cfs.seq = rec.CFS.Seq
	}
	if rec.MQ != nil {
		t.mq.budget = sim.Duration(rec.MQ.Budget)
		t.mq.periodStart = sim.Time(rec.MQ.PeriodStart)
		t.mq.throttled = rec.MQ.Throttled
		t.mq.acctMark = sim.Duration(rec.MQ.AcctMark)
		t.mq.refill = sim.Event{}
		t.mq.throttleEv = sim.Event{}
	}
	return nil
}

func (c *CFS) restoreRec(rec *CFSRec) error {
	if n := len(c.rqs); len(rec.RQs) != n || len(rec.IdleStart) != n || len(rec.AvgIdle) != n {
		return fmt.Errorf("cfs: %d run queues, %d idle starts and %d idle averages for %d CPUs",
			len(rec.RQs), len(rec.IdleStart), len(rec.AvgIdle), n)
	}
	c.seq = rec.Seq
	for i := range rec.RQs {
		rq := c.rqs[i]
		rq.threads = rq.threads[:0]
		rq.minVrun = rec.RQs[i].MinVrun
		for pos, tid := range rec.RQs[i].Threads {
			t := c.k.Thread(TID(tid))
			switch {
			case t == nil:
				return fmt.Errorf("cfs rq %d: thread T%d missing", i, tid)
			case t.class != Class(c) || t.state != StateRunnable:
				return fmt.Errorf("cfs rq %d: %v is not a runnable CFS thread", i, t)
			case t.cfs.onRq:
				return fmt.Errorf("cfs rq %d: %v listed twice", i, t)
			}
			t.cfs.onRq, t.cfs.rqCPU, t.cfs.idx = true, hw.CPUID(i), pos
			rq.threads = append(rq.threads, t)
		}
		c.queued.SetTo(hw.CPUID(i), rq.Len() > 0)
	}
	for i, v := range rec.IdleStart {
		c.idleStart[i] = sim.Time(v)
	}
	for i, v := range rec.AvgIdle {
		c.avgIdle[i] = sim.Duration(v)
	}
	return nil
}

// --- pending events ---------------------------------------------------

// SnapshotEvents declares the kernel's pre-bound events, each named by
// its CPU or TID (the CFS balancer by nothing). A CPU holds one tick or
// start stagger. Its completion, switch end and scheduling pass are the
// only record that it burns, switches or is due a pass: restoring one
// adopts the completion or sets the flag, so a CPU holds at most one of
// each. A CPU burns or switches, never both, so its completion and
// switch end exclude each other. A completion is refused unless the
// CPU's current thread has work left. A switch end needs no current
// thread: one that is killed, moved to another class or forced off in
// the dead time leaves the CPU switching with none. A MicroQuanta thread
// holds at most one throttle and one refill; the balancer is one event.
func (k *Kernel) SnapshotEvents() []sim.EventKind {
	n := len(k.cpus)
	ticked := make([]bool, n)
	// Each callback is armed with one argument type only.
	cpuRef := func(a any) (sim.EventFields, bool) { return sim.EventFields{Ref: int64(a.(*CPU).ID)}, true }
	threadRef := func(a any) (sim.EventFields, bool) { return sim.EventFields{Ref: int64(a.(*Thread).tid)}, true }
	// onCPU loads a CPU event, refused unless the CPU is in state.
	onCPU := func(state string, in func(*CPU) bool) func(sim.EventFields) (any, error) {
		return func(f sim.EventFields) (any, error) {
			if f.Ref < 0 || f.Ref >= int64(n) {
				return nil, fmt.Errorf("CPU %d out of range [0, %d)", f.Ref, n)
			}
			if c := k.cpus[f.Ref]; in == nil || in(c) {
				return c, nil
			}
			return nil, fmt.Errorf("cpu%d is not %s", f.Ref, state)
		}
	}
	thread := func(f sim.EventFields) (any, error) {
		if t := k.Thread(TID(f.Ref)); t != nil {
			return t, nil
		}
		return nil, fmt.Errorf("no thread T%d", f.Ref)
	}
	// ticks holds at most one tick or start stagger per CPU.
	ticks := func(kind sim.EventKind) sim.EventKind {
		kind.Pending = func(a any) bool { return ticked[a.(*CPU).ID] }
		kind.Adopt = func(a any, _ sim.Time, _ sim.Event) { ticked[a.(*CPU).ID] = true }
		return kind
	}
	kinds := []sim.EventKind{
		{Name: "kernel.resched", Fn: k.reschedFn, Save: cpuRef, Load: onCPU("", nil),
			Pending: func(a any) bool { return a.(*CPU).reschedPending },
			Adopt:   func(a any, _ sim.Time, _ sim.Event) { a.(*CPU).setReschedPending(true) }},
		{Name: "kernel.workdone", Fn: k.workDoneFn, Save: cpuRef,
			Load: onCPU("running a thread with work left outside a switch", func(c *CPU) bool {
				return c.curr != nil && c.curr.pendingWork > 0 && !c.switching
			}),
			Pending: func(a any) bool { return a.(*CPU).completion.Pending() },
			Adopt:   func(a any, _ sim.Time, ev sim.Event) { a.(*CPU).completion = ev }},
		{Name: "kernel.switchdone", Fn: k.switchDoneFn, Save: cpuRef,
			Load:    onCPU("free of a pending completion", func(c *CPU) bool { return !c.completion.Pending() }),
			Pending: func(a any) bool { return a.(*CPU).switching },
			Adopt:   func(a any, _ sim.Time, _ sim.Event) { a.(*CPU).setSwitching(true) }},
		{Name: "kernel.wake", Fn: k.wakeFn, Save: threadRef, Load: thread},
		{Name: "kernel.poke", Fn: k.pokeFn, Save: threadRef, Load: thread},
		ticks(sim.EventKind{Name: "kernel.tick", Fn: tickFire, Save: cpuRef, Load: onCPU("", nil)}),
		ticks(sim.EventKind{Name: "kernel.starttick", Fn: startTickFn, Save: cpuRef, Load: onCPU("", nil)}),
	}
	if m, ok := k.Class("microquanta").(*MicroQuanta); ok {
		kinds = append(kinds,
			sim.EventKind{Name: "kernel.mq.throttle", Fn: m.throttleFn, Save: threadRef, Load: thread,
				Pending: func(a any) bool { return a.(*Thread).mq.throttleEv.Pending() },
				Adopt:   func(a any, _ sim.Time, ev sim.Event) { a.(*Thread).mq.throttleEv = ev }},
			sim.EventKind{Name: "kernel.mq.refill", Fn: m.refillFn, Save: threadRef, Load: thread,
				Pending: func(a any) bool { return a.(*Thread).mq.refill.Pending() },
				Adopt:   func(a any, _ sim.Time, ev sim.Event) { a.(*Thread).mq.refill = ev }})
	}
	if c, ok := k.Class("cfs").(*CFS); ok {
		balancing := false
		kinds = append(kinds, sim.EventKind{Name: "kernel.cfs.balance", Fn: balanceFire,
			Save:    func(a any) (sim.EventFields, bool) { return sim.EventFields{}, a == any(c) },
			Load:    func(sim.EventFields) (any, error) { return c, nil },
			Pending: func(any) bool { return balancing },
			Adopt:   func(any, sim.Time, sim.Event) { balancing = true }})
	}
	return kinds
}
