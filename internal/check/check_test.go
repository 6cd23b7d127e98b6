package check

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestCleanSeedsNoFalsePositives runs a spread of generated scenarios
// with no seeded bug: the oracles must stay silent (fault injection is
// part of the protocol, not a violation of it).
func TestCleanSeedsNoFalsePositives(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		s := Generate(seed)
		res := s.Run()
		if res.Failed() {
			t.Errorf("seed %d (%s): unexpected violations:", seed, s.Repro())
			for _, v := range res.Violations {
				t.Errorf("  %s", v)
			}
		}
	}
}

// TestGenerateDeterministic pins that scenario generation depends only
// on the seed.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a != b {
			t.Fatalf("seed %d: Generate not deterministic:\n  %+v\n  %+v", seed, a, b)
		}
	}
}

// TestRunDeterministic pins that running the same scenario twice yields
// identical violation lists (byte-identical repro requirement).
func TestRunDeterministic(t *testing.T) {
	for _, seed := range []uint64{3, 7, 11} {
		s := Generate(seed)
		s.Mutation = "double-latch" // force activity in the violation path too
		a, b := s.Run(), s.Run()
		if !reflect.DeepEqual(violationStrings(a), violationStrings(b)) {
			t.Fatalf("seed %d: Run not deterministic:\n  %v\n  %v",
				seed, violationStrings(a), violationStrings(b))
		}
	}
}

func violationStrings(r *Result) []string {
	out := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		out[i] = v.String()
	}
	return out
}

// TestReproRoundTrip pins Repro/ParseRepro as a lossless pair: parsing a
// rendered scenario yields the same scenario, and re-rendering yields
// the same bytes.
func TestReproRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		s := Generate(seed)
		if seed%3 == 0 {
			s.Mutation = MutationNames()[int(seed)%len(MutationNames())]
		}
		spec := s.Repro()
		got, err := ParseRepro(spec)
		if err != nil {
			t.Fatalf("seed %d: ParseRepro(%q): %v", seed, spec, err)
		}
		if got != s {
			t.Fatalf("seed %d: round-trip mismatch:\n  in:  %+v\n  out: %+v", seed, s, got)
		}
		if got.Repro() != spec {
			t.Fatalf("seed %d: re-render mismatch:\n  %q\n  %q", seed, spec, got.Repro())
		}
	}
}

// knownViolationRepros are the seven status-word repros that seeds
// 1-400 produced while ghostcore kept a CPU's committed thread in four
// structures that could disagree: a thread latched with no slot (the
// double latch) or a recalled commit's stale install. One latch record
// per CPU cannot represent either, so they now run clean. Two were
// recorded while the event queue could be sharded and carry "shards=2".
var knownViolationRepros = []string{
	"seed=97 policy=shinjuku cpus=4 threads=11 horizon=30.000ms watchdog=10.000ms faults=ipiloss@16.783ms/298.000us/0.30000000000000004,ipidelay@8.877ms/566.000us/8.000us",
	"seed=121 policy=coresched cpus=4 threads=15 horizon=25.000ms watchdog=10.000ms faults=upgrade@810.000us,ipiloss@6.360ms/1.586ms/0.4",
	"seed=134 policy=shinjuku cpus=8 threads=12 horizon=40.000ms watchdog=10.000ms faults=ipiloss@16.476ms/1.648ms/0.5",
	"seed=185 policy=shinjuku cpus=2 threads=9 horizon=40.000ms watchdog=10.000ms faults=ipiloss@28.037ms/712.000us/0.8",
	"seed=228 policy=shinjuku cpus=2 threads=6 horizon=25.000ms watchdog=10.000ms faults=ipiloss@516.000us/1.952ms/0.7,ipidelay@4.870ms/899.000us/29.000us shards=2",
	"seed=241 policy=shinjuku cpus=2 threads=15 horizon=35.000ms watchdog=10.000ms faults=slow@17.366ms/921.000us/2,stall@6.070ms/1.196ms,ipiloss@8.323ms/1.985ms/0.5 shards=2",
	"seed=284 policy=shinjuku cpus=2 threads=12 horizon=35.000ms faults=msgdrop@15.296ms/641.000us/0.30000000000000004,ipiloss@12.837ms/782.000us/0.8",
}

// shrunkViolationRepros are two more scenarios of that kind: seed 3267,
// the violating scenario of seeds 1-4000 with the smallest fault plan
// (one agent slowdown, no IPI or message fault), and the 2-CPU shrink of
// seed 97, which differs from Generate(97).
var shrunkViolationRepros = []string{
	"seed=3267 policy=coresched cpus=4 threads=14 horizon=25.000ms faults=slow@19.271ms/791.000us/3",
	"seed=97 policy=shinjuku cpus=2 threads=2 horizon=30.000ms faults=ipiloss@16.783ms/298.000us/0.30000000000000004",
}

// TestKnownViolationRepros replays knownViolationRepros and
// shrunkViolationRepros, which must raise no violation. The "shards=2"
// field must still parse, change nothing, and drop out of the
// re-rendered string.
func TestKnownViolationRepros(t *testing.T) {
	for i, spec := range append(knownViolationRepros, shrunkViolationRepros...) {
		s, err := ParseRepro(spec)
		if err != nil {
			t.Fatalf("ParseRepro(%q): %v", spec, err)
		}
		if got, want := s.Repro(), strings.TrimSuffix(spec, " shards=2"); got != want {
			t.Errorf("re-render mismatch:\n  got  %q\n  want %q", got, want)
		}
		if i < len(knownViolationRepros) && s != Generate(s.Seed) {
			t.Errorf("seed %d: parsed scenario differs from Generate(%d)", s.Seed, s.Seed)
		}
		if res := s.Run(); res.Failed() {
			t.Errorf("%s: replay raised violations: %v", spec, violationStrings(res))
		}
	}
}

func TestParseReproErrors(t *testing.T) {
	for _, bad := range []string{
		"seed=1",                         // missing policy
		"policy=nope seed=1",             // unknown policy
		"policy=shinjuku seed=x",         // bad seed
		"policy=shinjuku mutate=nope",    // unknown mutation
		"policy=shinjuku faults=zap@1ms", // bad fault kind
		"policy=shinjuku horizon=fast",   // bad duration
		"garbage",                        // no key=value
		"policy=shinjuku color=red",      // unknown key
		"policy=shinjuku shards=two",     // bad shard count
	} {
		if _, err := ParseRepro(bad); err == nil {
			t.Errorf("ParseRepro(%q): expected error, got nil", bad)
		}
	}
}

// stuckRunRepro is one of the three scenarios of seeds 1-4000 (131, 677
// and 2875) in which an SMT speed change once finished a thread's work
// by rounding and cancelled its completion, leaving the thread running a
// Run request forever: here a worker of a 2-CPU Search enclave, from
// 10.705 ms on.
const stuckRunRepro = "seed=677 policy=search cpus=2 threads=2 horizon=20.000ms watchdog=10.000ms faults=crash@2.024ms"

// TestStuckRunRepro replays stuckRunRepro under the Default oracles,
// no-stuck-run among them: it must run clean.
func TestStuckRunRepro(t *testing.T) {
	s, err := ParseRepro(stuckRunRepro)
	if err != nil {
		t.Fatal(err)
	}
	if s != Generate(s.Seed) {
		t.Errorf("seed %d: parsed scenario differs from Generate(%d)", s.Seed, s.Seed)
	}
	if !slices.ContainsFunc(Default(), func(o Oracle) bool { return o.Name() == "no-stuck-run" }) {
		t.Fatal("no-stuck-run is not a Default oracle")
	}
	if res := s.Run(); res.Failed() {
		t.Errorf("%s: replay raised violations: %v", stuckRunRepro, violationStrings(res))
	}
}
