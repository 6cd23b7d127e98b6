package check

import "testing"

// badRepros are specs Run cannot honour as written. Each used to parse:
// odd or out-of-range CPU counts panicked in the enclave or kernel, and
// the rest ran a scenario other than the one the line names.
var badRepros = []string{
	"policy=central-fifo cpus=3",
	"policy=cfs cpus=-2",
	"policy=cfs cpus=0",
	"policy=shinjuku cpus=258",
	"policy=shinjuku threads=-1",
	"policy=cfs horizon=-5ms",
	"policy=cfs horizon=0s",
	"policy=cfs horizon=1.0005ms",
	"policy=cfs horizon=2562047h47m16.854775s",
	"policy=shinjuku watchdog=-1ms",
	"policy=shinjuku watchdog=10.0005ms",
}

// TestParseReproRejectsUnrunnable pins that ParseRepro returns an error,
// not a scenario, for every spec Run would panic on or silently alter.
func TestParseReproRejectsUnrunnable(t *testing.T) {
	for _, spec := range badRepros {
		if s, err := ParseRepro(spec); err == nil {
			t.Errorf("ParseRepro(%q) accepted %+v, want an error", spec, s)
		}
	}
	for _, spec := range []string{
		"policy=cfs cpus=2 threads=0",
		"policy=search cpus=256 horizon=1us watchdog=0s",
		"policy=shinjuku cpus=6 horizon=1.5ms",
	} {
		if _, err := ParseRepro(spec); err != nil {
			t.Errorf("ParseRepro(%q): %v", spec, err)
		}
	}
}

// FuzzParseRepro checks that ParseRepro never panics and that every
// spec it accepts round-trips: the scenario's own Repro string parses
// back to the same scenario.
func FuzzParseRepro(f *testing.F) {
	for _, spec := range knownViolationRepros {
		f.Add(spec)
	}
	for _, spec := range badRepros {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseRepro(spec)
		if err != nil {
			return
		}
		again, err := ParseRepro(s.Repro())
		if err != nil {
			t.Fatalf("ParseRepro(%q) accepted, but its Repro %q fails: %v", spec, s.Repro(), err)
		}
		if again != s {
			t.Fatalf("round-trip of %q:\n  first:  %+v\n  second: %+v", spec, s, again)
		}
	})
}
