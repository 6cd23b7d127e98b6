// Package faults is the deterministic fault-injection subsystem of the
// simulator (§3.4 robustness): a Plan is a seeded, virtual-time schedule
// of typed faults — agent crash/stall/slow-step, message drop/delay/
// duplication on enclave queues, IPI loss/delay, transaction-commit
// failure bursts, forced in-place agent upgrades — installed once and
// replayed identically on every run with the same seed.
//
// The subsystem is wired through hook points in the kernel (which holds
// the Injector), the ghOSt core (message posts, remote-commit IPIs,
// transaction validation) and the agent SDK (which registers AgentHooks
// per enclave so crash/stall/slow/upgrade faults reach the live agent
// generation). Every injected fault goes to the injector's observers;
// the tracer is one, so fault schedules show up on the timeline and in
// the metrics report alongside the recovery actions they provoke
// (watchdog fires, CFS fallback, upgrade handoffs).
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"ghost/internal/sim"
)

// Kind enumerates the fault types a Plan can schedule.
type Kind int

// Fault kinds. Agent-level kinds (AgentCrash, AgentStall, AgentSlow,
// Upgrade) fire through the AgentHooks registered by the agent SDK;
// window kinds (the rest) open an injection window that intercepts
// matching operations until the window expires.
const (
	AgentCrash Kind = iota // kill the agent generation without an upgrade
	AgentStall             // agent burns CPU making no decisions for Dur
	AgentSlow              // agent step costs multiply by Factor for Dur
	MsgDrop                // kernel→agent messages are lost
	MsgDelay               // kernel→agent messages arrive Delay late
	MsgDup                 // kernel→agent messages are delivered twice
	IPIDelay               // remote-commit IPIs take Delay longer
	IPILoss                // remote-commit IPIs are lost (tick recovers)
	TxnFail                // transaction validation fails spuriously
	Upgrade                // force an in-place agent upgrade (§3.4)
)

func (k Kind) String() string {
	switch k {
	case AgentCrash:
		return "crash"
	case AgentStall:
		return "stall"
	case AgentSlow:
		return "slow"
	case MsgDrop:
		return "msgdrop"
	case MsgDelay:
		return "msgdelay"
	case MsgDup:
		return "msgdup"
	case IPIDelay:
		return "ipidelay"
	case IPILoss:
		return "ipiloss"
	case TxnFail:
		return "txnfail"
	case Upgrade:
		return "upgrade"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// windowed reports whether the kind opens an injection window (as
// opposed to firing once through agent hooks).
func (k Kind) windowed() bool {
	switch k {
	case MsgDrop, MsgDelay, MsgDup, IPIDelay, IPILoss, TxnFail:
		return true
	}
	return false
}

// AnyEnclave is the enclave id a trace event carries for a fault that
// reaches every enclave (a window, or an agent fault no hooks took).
const AnyEnclave = -1

// Fault is one scheduled fault. At is the (virtual) injection time; the
// remaining fields qualify the kind as documented on the constants. A
// fault reaches every enclave; a stall or slow fault reaches the active
// global agent (centralized model) or every agent (per-CPU model).
type Fault struct {
	At   sim.Time
	Kind Kind

	// Dur is the window length for window kinds and AgentSlow, and the
	// stall length for AgentStall. Zero means an open-ended window.
	Dur sim.Duration
	// Delay is the added latency for MsgDelay / IPIDelay.
	Delay sim.Duration
	// Factor is the AgentSlow step-cost multiplier (below 1, as when
	// unset, it defaults to 2).
	Factor float64
	// Prob is the per-operation injection probability inside a window;
	// zero or >=1 means always.
	Prob float64
}

// String renders the fault in ParsePlan's spec syntax, which parses
// back to the same fault. The duration field is written whenever a
// parameter follows it.
func (f Fault) String() string {
	param := ""
	switch f.Kind {
	case MsgDelay, IPIDelay:
		if f.Delay > 0 {
			param = specDur(f.Delay)
		}
	case AgentSlow:
		if f.Factor > 0 {
			param = strconv.FormatFloat(f.Factor, 'g', -1, 64)
		}
	default:
		if f.Prob > 0 {
			param = strconv.FormatFloat(f.Prob, 'g', -1, 64)
		}
	}
	s := f.Kind.String() + "@" + specDur(f.At)
	if f.Dur > 0 || param != "" {
		s += "/" + specDur(f.Dur)
	}
	if param != "" {
		s += "/" + param
	}
	return s
}

// specDur renders d as the simulator prints times when that parses back
// to d, and in whole nanoseconds when it does not (sim.Time's String
// rounds to µs above one millisecond).
func specDur(d sim.Duration) string {
	s := d.String()
	if back, err := parseDur(s); err == nil && back == d {
		return s
	}
	return strconv.FormatInt(int64(d), 10) + "ns"
}

// Plan is a seeded schedule of faults. The seed drives every
// probabilistic decision the injector makes, so the same plan on the
// same simulation reproduces the exact same fault sequence.
type Plan struct {
	Seed   uint64
	Faults []Fault
}

// NewPlan returns an empty plan with the given seed.
func NewPlan(seed uint64) *Plan { return &Plan{Seed: seed} }

// Add appends a fault and returns the plan for chaining.
func (p *Plan) Add(f Fault) *Plan {
	p.Faults = append(p.Faults, f)
	return p
}

// Crash schedules an agent crash (no upgrade: CFS fallback).
func (p *Plan) Crash(at sim.Time) *Plan {
	return p.Add(Fault{At: at, Kind: AgentCrash})
}

// Upgrade schedules a forced in-place agent upgrade.
func (p *Plan) Upgrade(at sim.Time) *Plan {
	return p.Add(Fault{At: at, Kind: Upgrade})
}

// Stall schedules an agent stall of length d.
func (p *Plan) Stall(at sim.Time, d sim.Duration) *Plan {
	return p.Add(Fault{At: at, Kind: AgentStall, Dur: d})
}

// Slow multiplies agent step costs by factor for a window of length d.
func (p *Plan) Slow(at sim.Time, d sim.Duration, factor float64) *Plan {
	return p.Add(Fault{At: at, Kind: AgentSlow, Dur: d, Factor: factor})
}

// DropMsgs drops kernel→agent messages with probability prob for d.
func (p *Plan) DropMsgs(at sim.Time, d sim.Duration, prob float64) *Plan {
	return p.Add(Fault{At: at, Kind: MsgDrop, Dur: d, Prob: prob})
}

// DelayMsgs delays kernel→agent messages by delay for a window of d.
func (p *Plan) DelayMsgs(at sim.Time, d, delay sim.Duration) *Plan {
	return p.Add(Fault{At: at, Kind: MsgDelay, Dur: d, Delay: delay})
}

// DupMsgs duplicates kernel→agent messages with probability prob for d.
func (p *Plan) DupMsgs(at sim.Time, d sim.Duration, prob float64) *Plan {
	return p.Add(Fault{At: at, Kind: MsgDup, Dur: d, Prob: prob})
}

// DelayIPIs adds delay to remote-commit IPIs for a window of d.
func (p *Plan) DelayIPIs(at sim.Time, d, delay sim.Duration) *Plan {
	return p.Add(Fault{At: at, Kind: IPIDelay, Dur: d, Delay: delay})
}

// LoseIPIs drops remote-commit IPIs with probability prob for d; the
// install is recovered by the next timer tick on the target CPU.
func (p *Plan) LoseIPIs(at sim.Time, d sim.Duration, prob float64) *Plan {
	return p.Add(Fault{At: at, Kind: IPILoss, Dur: d, Prob: prob})
}

// FailTxns makes transaction validation fail with probability prob for d.
func (p *Plan) FailTxns(at sim.Time, d sim.Duration, prob float64) *Plan {
	return p.Add(Fault{At: at, Kind: TxnFail, Dur: d, Prob: prob})
}

// String renders the plan in ParsePlan's spec syntax.
func (p *Plan) String() string {
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses a comma-separated fault spec into a plan seeded with
// seed. Each entry is kind@at[/dur][/param] with Go duration syntax:
//
//	crash@500ms               agent crash at t=500ms
//	upgrade@1s                forced agent upgrade at t=1s
//	stall@1s/2ms              agent stalls for 2ms
//	slow@1s/5ms/4             agent steps cost 4x for 5ms
//	msgdrop@1s/5ms/0.5        messages dropped with p=0.5 for 5ms
//	msgdelay@1s/5ms/50us      messages delayed 50us for 5ms
//	msgdup@1s/5ms/0.25        messages duplicated with p=0.25 for 5ms
//	ipidelay@1s/2ms/5us       IPIs delayed 5us for 2ms
//	ipiloss@1s/2ms/0.5        IPIs lost with p=0.5 for 2ms
//	txnfail@1s/1ms            every commit fails for 1ms
//
// A slow factor lies in [1, 1e6] and a probability in [0, 1], and an
// entry's time, duration and delay must sum within the clock's range;
// anything else is an error, as is any other malformed entry.
func ParsePlan(spec string, seed uint64) (*Plan, error) {
	p := NewPlan(seed)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("faults: %q: missing @time", entry)
		}
		kind, err := parseKind(kindStr)
		if err != nil {
			return nil, fmt.Errorf("faults: %q: %v", entry, err)
		}
		fields := strings.Split(rest, "/")
		at, err := parseDur(fields[0])
		if err != nil {
			return nil, fmt.Errorf("faults: %q: bad time: %v", entry, err)
		}
		f := Fault{At: sim.Time(at), Kind: kind}
		if len(fields) > 1 {
			if kind == AgentCrash || kind == Upgrade {
				return nil, fmt.Errorf("faults: %q: %s takes no duration", entry, kind)
			}
			if f.Dur, err = parseDur(fields[1]); err != nil {
				return nil, fmt.Errorf("faults: %q: bad duration: %v", entry, err)
			}
		}
		if len(fields) > 2 {
			param := fields[2]
			switch kind {
			case MsgDelay, IPIDelay:
				if f.Delay, err = parseDur(param); err != nil {
					return nil, fmt.Errorf("faults: %q: bad delay: %v", entry, err)
				}
			case AgentSlow:
				if f.Factor, err = strconv.ParseFloat(param, 64); err != nil {
					return nil, fmt.Errorf("faults: %q: bad factor: %v", entry, err)
				}
				if !(f.Factor >= 1 && f.Factor <= maxSlowFactor) {
					return nil, fmt.Errorf("faults: %q: slow factor %v outside [1, %g]", entry, f.Factor, maxSlowFactor)
				}
			case MsgDrop, MsgDup, IPILoss, TxnFail:
				if f.Prob, err = strconv.ParseFloat(param, 64); err != nil {
					return nil, fmt.Errorf("faults: %q: bad probability: %v", entry, err)
				}
				if !(f.Prob >= 0 && f.Prob <= 1) {
					return nil, fmt.Errorf("faults: %q: probability %v outside [0, 1]", entry, f.Prob)
				}
			default:
				return nil, fmt.Errorf("faults: %q: %s takes no parameter", entry, kind)
			}
		}
		if len(fields) > 3 {
			return nil, fmt.Errorf("faults: %q: too many fields", entry)
		}
		if end := f.At + sim.Time(f.Dur); end < f.At || end+sim.Time(f.Delay) < end {
			return nil, fmt.Errorf("faults: %q: time plus duration and delay overflows the clock", entry)
		}
		p.Add(f)
	}
	if len(p.Faults) == 0 {
		return nil, fmt.Errorf("faults: empty plan spec %q", spec)
	}
	return p, nil
}

// maxSlowFactor bounds a slow fault's step-cost multiplier: an agent
// step of one simulated second, slowed by it, still fits a sim.Duration
// with room to spare.
const maxSlowFactor = 1e6

func parseKind(s string) (Kind, error) {
	for k := AgentCrash; k <= Upgrade; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown fault kind %q", s)
}

func parseDur(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %v", d)
	}
	return sim.Duration(d.Nanoseconds()), nil
}

// AgentHooks is the callback set an agent generation registers so
// agent-level faults reach it. A new generation's registration replaces
// its predecessor's, so fault delivery follows upgrade handoffs.
type AgentHooks struct {
	// Crash kills the agent generation without announcing an upgrade.
	Crash func(now sim.Time)
	// Stall makes the agent(s) burn CPU for d.
	Stall func(now sim.Time, d sim.Duration)
	// Slow multiplies the agent(s)' step costs until until.
	Slow func(now sim.Time, until sim.Time, factor float64)
	// Upgrade stops this generation and starts a successor in place.
	Upgrade func(now sim.Time)
}

// window is one active window fault.
type window struct {
	f     Fault
	until sim.Time // 0 = open-ended
}

// Injector replays a Plan against one simulation. The kernel owns it
// (Kernel.SetFaults / Kernel.Faults); the ghOSt core calls the On*
// interception methods — all of which are safe on a nil *Injector — and
// the agent SDK registers AgentHooks per enclave.
type Injector struct {
	eng *sim.Engine
	rnd *sim.Rand
	obs []Observer

	windows []*window
	hooks   map[int]*AgentHooks
}

// NewInjector schedules every fault of plan on eng and returns the
// injector. Faults whose time already passed fire at the current time.
func NewInjector(eng *sim.Engine, plan *Plan) *Injector {
	in := &Injector{
		eng:   eng,
		rnd:   sim.NewRand(plan.Seed ^ 0xFA017FA017),
		hooks: make(map[int]*AgentHooks),
	}
	for _, f := range plan.Faults {
		f := f
		at := f.At
		if at < eng.Now() {
			at = eng.Now()
		}
		eng.At(at, func() { in.fire(f) })
	}
	return in
}

// Observer hears every fault-injection decision: a window opening, an
// agent fault reaching an enclave (or finding none: kind ends in
// "-skipped"), or one injected fault inside a window, keyed by its kind
// string, with the enclave id (AnyEnclave for none) and a detail.
type Observer interface {
	Fault(now sim.Time, kind string, enc int, detail string)
}

// AddObserver makes o hear every later fault, after the observers added
// before it.
func (in *Injector) AddObserver(o Observer) { in.obs = append(in.obs, o) }

func (in *Injector) emit(now sim.Time, kind string, enc int, detail string) {
	for _, o := range in.obs {
		o.Fault(now, kind, enc, detail)
	}
}

// RegisterAgentHooks installs (or replaces) the agent-level fault
// callbacks for enclave enc.
func (in *Injector) RegisterAgentHooks(enc int, h *AgentHooks) {
	if in == nil {
		return
	}
	in.hooks[enc] = h
}

// targets returns the enclave ids with registered hooks, in
// deterministic (sorted) order.
func (in *Injector) targets() []int {
	ids := make([]int, 0, len(in.hooks))
	for id := range in.hooks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// fire delivers one scheduled fault: agent kinds invoke the registered
// hooks, window kinds open an injection window.
func (in *Injector) fire(f Fault) {
	now := in.eng.Now()
	if f.Kind.windowed() {
		until := sim.Time(0)
		if f.Dur > 0 {
			until = now + f.Dur
		}
		in.windows = append(in.windows, &window{f: f, until: until})
		in.emit(now, f.Kind.String()+"-window", AnyEnclave, f.String())
		return
	}
	fired := false
	for _, id := range in.targets() {
		h := in.hooks[id]
		switch f.Kind {
		case AgentCrash:
			if h.Crash != nil {
				in.emit(now, "crash", id, "")
				h.Crash(now)
				fired = true
			}
		case Upgrade:
			if h.Upgrade != nil {
				in.emit(now, "upgrade", id, "")
				h.Upgrade(now)
				fired = true
			}
		case AgentStall:
			if h.Stall != nil {
				in.emit(now, "stall", id, f.Dur.String())
				h.Stall(now, f.Dur)
				fired = true
			}
		case AgentSlow:
			if h.Slow != nil {
				factor := f.Factor
				if factor < 1 {
					factor = 2
				}
				in.emit(now, "slow", id, fmt.Sprintf("x%g for %v", factor, f.Dur))
				h.Slow(now, now+f.Dur, factor)
				fired = true
			}
		}
	}
	if !fired {
		in.emit(now, f.Kind.String()+"-skipped", AnyEnclave, "no agent hooks")
	}
}

// OpenWindow returns the first injection window still open at now: one
// that has not yet expired. A snapshot cannot hold it, since the image
// carries neither the windows nor the injector's random stream.
func (in *Injector) OpenWindow(now sim.Time) (Fault, bool) {
	if in == nil {
		return Fault{}, false
	}
	for _, w := range in.windows {
		if w.until == 0 || now < w.until {
			return w.f, true
		}
	}
	return Fault{}, false
}

// match scans the active windows for one matching kind and time whose
// probability draw passes.
func (in *Injector) match(kind Kind, now sim.Time) *Fault {
	for _, w := range in.windows {
		f := &w.f
		if f.Kind != kind {
			continue
		}
		if w.until != 0 && now >= w.until {
			continue
		}
		if p := f.Prob; p > 0 && p < 1 && in.rnd.Float64() >= p {
			continue
		}
		return f
	}
	return nil
}

// OnMessagePost intercepts one kernel→agent message post to enclave
// enc. Exactly one of drop/dup may be set; delay > 0 means deliver the
// message that much later.
func (in *Injector) OnMessagePost(now sim.Time, enc int) (drop, dup bool, delay sim.Duration) {
	if in == nil {
		return
	}
	if f := in.match(MsgDrop, now); f != nil {
		in.emit(now, "msgdrop", enc, "")
		return true, false, 0
	}
	if f := in.match(MsgDelay, now); f != nil {
		d := f.Delay
		if d <= 0 {
			d = 10 * sim.Microsecond
		}
		in.emit(now, "msgdelay", enc, d.String())
		return false, false, d
	}
	if f := in.match(MsgDup, now); f != nil {
		in.emit(now, "msgdup", enc, "")
		return false, true, 0
	}
	return
}

// OnIPI intercepts one remote-commit IPI for enclave enc: lost means
// the interrupt never arrives (the caller models tick-based recovery),
// extra is added propagation delay.
func (in *Injector) OnIPI(now sim.Time, enc int) (lost bool, extra sim.Duration) {
	if in == nil {
		return
	}
	if f := in.match(IPILoss, now); f != nil {
		in.emit(now, "ipiloss", enc, "")
		return true, 0
	}
	if f := in.match(IPIDelay, now); f != nil {
		d := f.Delay
		if d <= 0 {
			d = 5 * sim.Microsecond
		}
		in.emit(now, "ipidelay", enc, d.String())
		return false, d
	}
	return
}

// OnTxnValidate intercepts one transaction validation for enclave enc;
// true forces the commit to fail.
func (in *Injector) OnTxnValidate(now sim.Time, enc int) bool {
	if in == nil {
		return false
	}
	if f := in.match(TxnFail, now); f != nil {
		in.emit(now, "txnfail", enc, "")
		return true
	}
	return false
}
