package tune

import (
	"fmt"
	"testing"

	"ghost/internal/sim"
	"ghost/internal/tunable"
)

// synthetic is a fast closed-form scenario: p99 is a convex function of
// the two knobs (optimum at x=50, y=1) plus a seeded jitter, throughput
// trades off against x. It exercises the full halving machinery without
// simulations.
var synthetic = Scenario{
	Name: "synthetic",
	Doc:  "closed-form objective for tests",
	Space: func() *tunable.Set {
		return tunable.NewSet().
			Add(tunable.Tunable{Name: "x", Min: 1, Max: 1000, Default: 200, Log: true,
				Apply: func(float64) {}}).
			Add(tunable.Tunable{Name: "y", Min: 0, Max: 1, Default: 0, Integer: true,
				Apply: func(float64) {}})
	},
	Run: func(params map[string]float64, seed uint64, horizon sim.Duration) Objective {
		x, y := 200.0, 0.0
		if params != nil {
			x, y = params["x"], params["y"]
		}
		base := (x-50)*(x-50)/10 + 100*(1-y)
		// Longer horizons shrink the jitter, like real measurements.
		jitter := float64(sim.NewRand(seed).Intn(1000)) / float64(horizon/sim.Millisecond)
		return Objective{
			P99:        sim.Duration(base + jitter),
			Throughput: 1000 - x/10,
		}
	},
}

func digest(r *Result) string {
	return r.Report(synthetic).String()
}

func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	cfg := Config{Trials: 27, Eta: 3, Seed: 11, BaseHorizon: 10 * sim.Millisecond}
	want := digest(Search(synthetic, cfg))
	for _, par := range []int{2, 8} {
		c := cfg
		c.Parallel = par
		if got := digest(Search(synthetic, c)); got != want {
			t.Fatalf("parallel=%d report differs:\n%s\nwant:\n%s", par, got, want)
		}
	}
}

func TestSearchConverges(t *testing.T) {
	cfg := Config{Trials: 27, Eta: 3, Seed: 11, BaseHorizon: 10 * sim.Millisecond}
	res := Search(synthetic, cfg)
	// 27 -> 9 -> 3 -> 1: four rungs, geometric horizons.
	if len(res.Horizons) != 4 {
		t.Fatalf("rungs = %d, want 4 (%v)", len(res.Horizons), res.Horizons)
	}
	if res.Horizons[3] != 270*sim.Millisecond {
		t.Fatalf("final horizon %v, want 270ms", res.Horizons[3])
	}
	if len(res.Final) != 1 {
		t.Fatalf("final rung holds %d trials, want 1", len(res.Final))
	}
	best := res.Final[0]
	if best.Rungs != 4 {
		t.Fatalf("winner evaluated %d times, want 4", best.Rungs)
	}
	// The winner must beat the factory default on the tuned objective.
	if best.Obj.P99 >= res.Baseline.P99 {
		t.Fatalf("winner p99 %v not better than default %v", best.Obj.P99, res.Baseline.P99)
	}
	if !best.Pareto || len(res.Front) != 1 {
		t.Fatalf("single survivor must be the whole front: %+v", res.Front)
	}
}

func TestParetoFront(t *testing.T) {
	mk := func(id int, p99 sim.Duration, tput float64) *Trial {
		return &Trial{ID: id, Obj: Objective{P99: p99, Throughput: tput}}
	}
	trials := []*Trial{
		mk(0, 10, 100), // front: best p99
		mk(1, 20, 90),  // dominated by 0 (worse p99, worse tput)
		mk(2, 30, 150), // front: more throughput for more latency
		mk(3, 40, 150), // dominated by 2 (same tput, worse p99)
		mk(4, 50, 200), // front
	}
	rank(trials)
	front := pareto(trials)
	got := ""
	for _, tr := range front {
		got += fmt.Sprintf("%d,", tr.ID)
	}
	if got != "0,2,4," {
		t.Fatalf("front = %s, want 0,2,4,", got)
	}
	if trials[1].Pareto && trials[3].Pareto {
		t.Fatal("dominated trials marked as front")
	}
}

// TestScenariosSmoke runs each built-in scenario once at a tiny horizon
// to keep the facade wiring honest.
func TestScenariosSmoke(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			if s.Space().Len() == 0 {
				t.Fatal("empty search space")
			}
			o := s.Run(nil, 1, 5*sim.Millisecond) // nil: every knob at its default

			if o.Throughput <= 0 || o.P99 <= 0 {
				t.Fatalf("degenerate objective %+v", o)
			}
		})
	}
}
