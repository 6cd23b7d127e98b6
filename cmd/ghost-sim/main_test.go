package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// validScenario is the flag defaults' scenario.
func validScenario() scenario {
	return scenario{rate: 100000, service: 10 * time.Microsecond, workers: 32, cpus: 20, dur: time.Second}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	sc := validScenario()
	if err := sc.validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	sc.service, sc.cpus = 0, 1
	if err := sc.validate(); err != nil {
		t.Fatalf("zero service time on one worker CPU rejected: %v", err)
	}
}

// Each of these values used to panic (rate, service, -cpus -1 under a
// ghOSt scheduler) or run and print an empty result with exit 0.
func TestValidateRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		flag string
		set  func(*scenario)
	}{
		{"-rate", func(sc *scenario) { sc.rate = 0 }},
		{"-rate", func(sc *scenario) { sc.rate = -5 }},
		{"-rate", func(sc *scenario) { sc.rate = math.NaN() }},
		{"-rate", func(sc *scenario) { sc.rate = math.Inf(1) }},
		{"-service", func(sc *scenario) { sc.service = -time.Microsecond }},
		{"-cpus", func(sc *scenario) { sc.cpus = -1 }},
		{"-cpus", func(sc *scenario) { sc.cpus = 0 }},
		{"-workers", func(sc *scenario) { sc.workers = 0 }},
		{"-workers", func(sc *scenario) { sc.workers = -1 }},
		{"-dur", func(sc *scenario) { sc.dur = -time.Millisecond }},
		{"-dur", func(sc *scenario) { sc.dur = 0 }},
	} {
		sc := validScenario()
		tc.set(&sc)
		err := sc.validate()
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%+v: validate() = %v, want an error naming %s", sc, err, tc.flag)
		}
	}
}
