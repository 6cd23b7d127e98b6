package faults

import (
	"slices"
	"strings"
	"testing"

	"ghost/internal/sim"
)

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "crash@500ms,upgrade@1s,stall@1s/2ms,slow@1s/5ms/4," +
		"msgdrop@1s/5ms/0.5,msgdelay@1s/5ms/50us,msgdup@1s/5ms/0.25," +
		"ipidelay@1s/2ms/5us,ipiloss@1s/2ms/0.5,txnfail@1s/1ms"
	p, err := ParsePlan(spec, 42)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	if p.Seed != 42 {
		t.Errorf("seed = %d, want 42", p.Seed)
	}
	if len(p.Faults) != 10 {
		t.Fatalf("parsed %d faults, want 10", len(p.Faults))
	}
	f := p.Faults[0]
	if f.Kind != AgentCrash || f.At != sim.Time(500*sim.Millisecond) {
		t.Errorf("fault 0 = %+v, want crash@500ms", f)
	}
	if f := p.Faults[3]; f.Kind != AgentSlow || f.Factor != 4 || f.Dur != 5*sim.Millisecond {
		t.Errorf("fault 3 = %+v, want slow/5ms/x4", f)
	}
	if f := p.Faults[5]; f.Kind != MsgDelay || f.Delay != 50*sim.Microsecond {
		t.Errorf("fault 5 = %+v, want msgdelay/50us", f)
	}
	if f := p.Faults[8]; f.Kind != IPILoss || f.Prob != 0.5 {
		t.Errorf("fault 8 = %+v, want ipiloss p=0.5", f)
	}
	// The plan renders back to the same spec syntax, and that spec
	// parses to the same plan.
	p2, err := ParsePlan(p.String(), 42)
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if len(p2.Faults) != len(p.Faults) {
		t.Fatalf("round trip lost faults: %q", p.String())
	}
	for i := range p.Faults {
		if p.Faults[i] != p2.Faults[i] {
			t.Errorf("fault %d round trip: %+v != %+v", i, p.Faults[i], p2.Faults[i])
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"",                         // empty plan
		"explode@1s",               // unknown kind
		"crash",                    // missing @time
		"crash@nope",               // bad time
		"crash@1s/5ms",             // crash takes no duration
		"upgrade@1s/5ms",           // upgrade takes no duration
		"stall@1s/2ms/0.5",         // stall takes no parameter
		"slow@1s/5ms/wat",          // bad factor
		"msgdrop@1s/5ms/0.5/9",     // too many fields
		"msgdelay@1s/5ms/-50us",    // negative delay
		"slow@1ms/3ms/Inf",         // a step's cost overflows
		"slow@1ms/3ms/1e300",       // a step's cost overflows
		"slow@1ms/3ms/NaN",         // not a factor
		"slow@1ms/3ms/0.5",         // factor below 1
		"msgdrop@1ms/3ms/NaN",      // not a probability
		"msgdup@1ms/3ms/1.5",       // probability above 1
		"ipiloss@1ms/3ms/-0.25",    // probability below 0
		"stall@2562047h/2562047h",  // the window's end overflows the clock
		"msgdelay@1ms/2562047h/1h", // so does its last delivery
	} {
		if _, err := ParsePlan(spec, 1); err == nil || !strings.HasPrefix(err.Error(), "faults: ") {
			t.Errorf("ParsePlan(%q) = %v, want a faults: error", spec, err)
		}
	}
}

func TestWindowExpiry(t *testing.T) {
	eng := sim.NewEngine()
	plan := NewPlan(1)
	plan.DropMsgs(sim.Time(100*sim.Microsecond), 200*sim.Microsecond, 0) // p=0: always
	plan.FailTxns(sim.Time(100*sim.Microsecond), 0, 0)                   // open-ended
	in := NewInjector(eng, plan)

	// Before the window opens nothing is injected.
	if drop, _, _ := in.OnMessagePost(eng.Now(), 0); drop {
		t.Error("drop injected before window opened")
	}
	eng.RunUntil(sim.Time(150 * sim.Microsecond))
	if drop, _, _ := in.OnMessagePost(eng.Now(), 0); !drop {
		t.Error("drop not injected inside window")
	}
	// After expiry the window is inert.
	eng.RunUntil(sim.Time(400 * sim.Microsecond))
	if drop, _, _ := in.OnMessagePost(eng.Now(), 0); drop {
		t.Error("drop injected after window expired")
	}
	// The open-ended window never expires.
	for i := 0; i < 5; i++ {
		if !in.OnTxnValidate(eng.Now(), 0) {
			t.Fatalf("open-ended window passed txn %d", i)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func() []bool {
		eng := sim.NewEngine()
		plan := NewPlan(99)
		plan.DropMsgs(0, 0, 0.5)
		in := NewInjector(eng, plan)
		eng.RunUntil(sim.Time(sim.Microsecond))
		var out []bool
		for i := 0; i < 64; i++ {
			drop, _, _ := in.OnMessagePost(eng.Now(), 0)
			out = append(out, drop)
		}
		return out
	}
	a, b := run(), run()
	var hits int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between same-seed injectors", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Errorf("p=0.5 window injected %d/%d — probability not applied", hits, len(a))
	}
}

func TestAgentHooksAndTargets(t *testing.T) {
	eng := sim.NewEngine()
	plan := NewPlan(1)
	plan.Crash(sim.Time(10 * sim.Microsecond))
	plan.Stall(sim.Time(20*sim.Microsecond), 5*sim.Microsecond)
	plan.Upgrade(sim.Time(30 * sim.Microsecond))
	// A slow fault applies the factor it names, 1 included; unset
	// defaults to 2.
	plan.Slow(sim.Time(32*sim.Microsecond), sim.Microsecond, 1)
	plan.Slow(sim.Time(34*sim.Microsecond), sim.Microsecond, 0)
	in := NewInjector(eng, plan)

	var crashed []int
	var upgrades int
	var stallDur sim.Duration
	var factors []float64
	in.RegisterAgentHooks(0, &AgentHooks{
		Crash:   func(sim.Time) { crashed = append(crashed, 0) },
		Stall:   func(_ sim.Time, d sim.Duration) { stallDur = d },
		Slow:    func(_ sim.Time, _ sim.Time, f float64) { factors = append(factors, f) },
		Upgrade: func(sim.Time) { upgrades++ },
	})
	// A fault reaches every enclave's hooks, in enclave id order.
	in.RegisterAgentHooks(7, &AgentHooks{Crash: func(sim.Time) { crashed = append(crashed, 7) }})
	eng.RunUntil(sim.Time(50 * sim.Microsecond))
	if !slices.Equal(crashed, []int{0, 7}) {
		t.Errorf("crash hooks fired for enclaves %v, want [0 7]", crashed)
	}
	if upgrades != 1 {
		t.Errorf("upgrade hook fired %d times, want 1", upgrades)
	}
	if stallDur != 5*sim.Microsecond {
		t.Errorf("stall duration = %v, want 5us", stallDur)
	}
	if !slices.Equal(factors, []float64{1, 2}) {
		t.Errorf("slow factors = %v, want [1 2]", factors)
	}
}

// TestNilInjectorSafe: every interception hook must be callable on a
// nil *Injector, so call sites need no nil checks of their own.
func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if drop, dup, delay := in.OnMessagePost(0, 0); drop || dup || delay != 0 {
		t.Error("nil injector intercepted a message")
	}
	if lost, extra := in.OnIPI(0, 0); lost || extra != 0 {
		t.Error("nil injector intercepted an IPI")
	}
	if in.OnTxnValidate(0, 0) {
		t.Error("nil injector failed a txn")
	}
	in.RegisterAgentHooks(0, nil)
}
