package check

import (
	"reflect"
	"strings"
	"testing"

	"ghost/internal/faults"
	"ghost/internal/sim"
)

// badPlans are -faults specs that used to parse and then panicked the
// run (a non-finite or huge slow factor makes a step's cost negative) or
// injected nothing (a NaN probability fails every draw).
var badPlans = []string{
	"slow@1ms/3ms/Inf",
	"slow@1ms/3ms/1e300",
	"slow@1ms/3ms/NaN",
	"slow@1ms/3ms/0.5",
	"msgdrop@1ms/3ms/NaN",
	"msgdup@1ms/3ms/1.5",
	"ipiloss@1ms/3ms/-0.25",
	"stall@2562047h/2562047h",
}

// TestGeneratedPlansParse: every fault plan Generate draws parses, and
// prints back to the spec it was parsed from.
func TestGeneratedPlansParse(t *testing.T) {
	n := 0
	for seed := uint64(1); seed <= 400; seed++ {
		s := Generate(seed)
		if s.FaultSpec == "" {
			continue
		}
		n++
		p, err := faults.ParsePlan(s.FaultSpec, s.Seed)
		if err != nil {
			t.Fatalf("seed %d: generated plan %q: %v", seed, s.FaultSpec, err)
		}
		if p.String() != s.FaultSpec {
			t.Fatalf("seed %d: plan %q prints as %q", seed, s.FaultSpec, p.String())
		}
	}
	if n == 0 {
		t.Fatal("no generated scenario carries a fault plan")
	}
}

// FuzzParsePlan checks that faults.ParsePlan rejects with a "faults:"
// error or accepts a plan that round-trips through Plan.String, and that
// an accepted plan runs a few ms on a 2-CPU enclave without a panic.
func FuzzParsePlan(f *testing.F) {
	for seed := uint64(1); seed <= 40; seed++ {
		if s := Generate(seed); s.FaultSpec != "" {
			f.Add(s.FaultSpec)
		}
	}
	for _, spec := range badPlans {
		f.Add(spec)
	}
	ghostPolicies := []string{"central-fifo", "shinjuku", "search", "coresched", "percpu-fifo"}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := faults.ParsePlan(spec, 1)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "faults: ") {
				t.Fatalf("ParsePlan(%q) error %q lacks the faults: prefix", spec, err)
			}
			return
		}
		again, err := faults.ParsePlan(p.String(), 1)
		if err != nil {
			t.Fatalf("ParsePlan(%q) accepted, but its String %q fails: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("round trip of %q through %q:\n  first:  %+v\n  second: %+v", spec, p.String(), p, again)
		}
		s := Scenario{
			Seed: 1, Policy: ghostPolicies[len(spec)%len(ghostPolicies)],
			CPUs: 2, Threads: 3, Horizon: 4 * sim.Millisecond, FaultSpec: p.String(),
		}
		s.Run()
	})
}
