package tunable

import (
	"math"
	"testing"
)

func TestSetOrderAndApply(t *testing.T) {
	var a, b float64
	s := NewSet().
		Add(Tunable{Name: "alpha", Min: 1, Max: 100, Default: 10, Log: true,
			Apply: func(v float64) { a = v }}).
		Add(Tunable{Name: "beta", Min: 0, Max: 8, Default: 4, Integer: true,
			Apply: func(v float64) { b = v }})
	if got := s.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Names() = %v, want declaration order [alpha beta]", got)
	}
	if err := s.Set("alpha", 250); err != nil {
		t.Fatal(err)
	}
	if a != 100 {
		t.Errorf("alpha clamped to %g, want 100", a)
	}
	if err := s.Set("beta", 2.6); err != nil {
		t.Fatal(err)
	}
	if b != 3 {
		t.Errorf("beta rounded to %g, want 3", b)
	}
	if err := s.Set("gamma", 1); err == nil {
		t.Error("Set on unknown knob did not error")
	}
	// Set moves the value, never the declared default.
	alpha, _ := s.Get("alpha")
	beta, _ := s.Get("beta")
	if alpha.Default != 10 || beta.Default != 4 {
		t.Errorf("defaults = %g/%g, want 10/4", alpha.Default, beta.Default)
	}
}

func TestSampleSpacing(t *testing.T) {
	lin := Tunable{Name: "lin", Min: 0, Max: 10}
	if got := lin.Sample(0.5); math.Abs(got-5) > 1e-9 {
		t.Errorf("linear Sample(0.5) = %g, want 5", got)
	}
	log := Tunable{Name: "log", Min: 1, Max: 100, Log: true}
	if got := log.Sample(0.5); math.Abs(got-10) > 1e-9 {
		t.Errorf("log Sample(0.5) = %g, want 10 (geometric midpoint)", got)
	}
	if got := log.Sample(0); got != 1 {
		t.Errorf("log Sample(0) = %g, want 1", got)
	}
}

func TestAddPanics(t *testing.T) {
	cases := []struct {
		name string
		tun  Tunable
	}{
		{"dup", Tunable{Name: "x", Max: 1, Apply: func(float64) {}}},
		{"inverted", Tunable{Name: "y", Min: 2, Max: 1, Apply: func(float64) {}}},
		{"logzero", Tunable{Name: "z", Min: 0, Max: 1, Log: true, Apply: func(float64) {}}},
		{"nilapply", Tunable{Name: "w", Max: 1}},
	}
	for _, c := range cases {
		s := NewSet().Add(Tunable{Name: "x", Max: 1, Apply: func(float64) {}})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Add did not panic", c.name)
				}
			}()
			s.Add(c.tun)
		}()
	}
}
