package check

import (
	"testing"

	"ghost/internal/sim"
)

// findCaught scans generated ghost-policy scenarios with the given
// seeded bug enabled until the oracles catch it.
func findCaught(t *testing.T, mutation string, filter func(Scenario) bool) (Scenario, *Result) {
	t.Helper()
	for seed := uint64(1); seed <= 60; seed++ {
		s := Generate(seed)
		if !s.ghostPolicy() {
			continue
		}
		if filter != nil && !filter(s) {
			continue
		}
		s.Mutation = mutation
		if res := s.Run(); res.Failed() {
			return s, res
		}
	}
	t.Fatalf("mutation %q: no generated scenario caught the seeded bug", mutation)
	return Scenario{}, nil
}

func oracleNames(res *Result) map[string]bool {
	names := make(map[string]bool)
	for _, v := range res.Violations {
		names[v.Oracle] = true
	}
	return names
}

// checkMutation is the shared mutation-test body: the seeded bug must be
// caught by the expected oracle, the shrinker must reduce the failing
// scenario to the acceptance bounds (≤8 threads, ≤3 fault ops), and the
// shrunk repro must be byte-identical across reruns.
func checkMutation(t *testing.T, mutation string, wantOracles []string, filter func(Scenario) bool) {
	t.Helper()
	s, res := findCaught(t, mutation, filter)
	names := oracleNames(res)
	found := false
	for _, w := range wantOracles {
		if names[w] {
			found = true
		}
	}
	if !found {
		t.Fatalf("mutation %q caught (%s) but not by %v; violations:\n%v",
			mutation, s.Repro(), wantOracles, res.Violations)
	}

	shrunk, sres := Shrink(s)
	if !sres.Failed() {
		t.Fatalf("mutation %q: shrink of %s lost the failure", mutation, s.Repro())
	}
	if shrunk.Threads > 8 {
		t.Errorf("mutation %q: shrunk scenario has %d threads, want ≤8: %s",
			mutation, shrunk.Threads, shrunk.Repro())
	}
	if shrunk.FaultOps() > 3 {
		t.Errorf("mutation %q: shrunk scenario has %d fault ops, want ≤3: %s",
			mutation, shrunk.FaultOps(), shrunk.Repro())
	}

	// Byte-identical repro across reruns: shrinking again from the same
	// origin must yield the same scenario, and re-running the repro must
	// yield the same violations.
	shrunk2, _ := Shrink(s)
	if shrunk.Repro() != shrunk2.Repro() {
		t.Fatalf("mutation %q: shrink not deterministic:\n  %s\n  %s",
			mutation, shrunk.Repro(), shrunk2.Repro())
	}
	parsed, err := ParseRepro(shrunk.Repro())
	if err != nil {
		t.Fatalf("mutation %q: repro %q does not parse: %v", mutation, shrunk.Repro(), err)
	}
	a, b := parsed.Run(), parsed.Run()
	if !a.Failed() || !b.Failed() {
		t.Fatalf("mutation %q: parsed repro %q no longer fails", mutation, shrunk.Repro())
	}
	av, bv := violationStrings(a), violationStrings(b)
	if len(av) != len(bv) {
		t.Fatalf("mutation %q: repro reruns differ: %d vs %d violations", mutation, len(av), len(bv))
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("mutation %q: repro reruns differ at %d:\n  %s\n  %s", mutation, i, av[i], bv[i])
		}
	}
	t.Logf("mutation %q: caught at %s; shrunk to %s", mutation, s.Repro(), shrunk.Repro())
}

// TestMutationSkipTseq: a kernel that forgets to bump Tseq on wakeups
// breaks the §3.1 staleness protocol; the sequence oracle must see the
// non-advancing update.
func TestMutationSkipTseq(t *testing.T) {
	checkMutation(t, "skip-tseq", []string{"seq-monotonic"}, nil)
}

// TestMutationDropWakeup: a lost THREAD_WAKEUP outside any fault window
// strands a runnable thread nobody knows about; the conservation ledger
// or the no-lost-thread oracle must flag it. Watchdog-enabled scenarios
// are skipped: there the designed recovery (destroy + CFS fallback)
// masks the bug, which is exactly why the watchdog exists.
func TestMutationDropWakeup(t *testing.T) {
	checkMutation(t, "drop-wakeup", []string{"msg-conservation", "no-lost-thread"},
		func(s Scenario) bool { return s.Watchdog == 0 })
}

// TestMutationDoubleLatch: commits that overwrite an existing latch
// without handing the displaced thread back leave two threads believing
// they own one CPU; the status-word oracle must catch the double latch.
func TestMutationDoubleLatch(t *testing.T) {
	checkMutation(t, "double-latch", []string{"status-word"}, nil)
}

// TestMutationScanCounts pins how many of seeds 1-40 each seeded bug
// makes fail, as `ghost-check -seeds 40 -mutate <name>` scans them: a
// faster oracle must not catch fewer.
func TestMutationScanCounts(t *testing.T) {
	want := map[string]int{"skip-tseq": 34, "drop-wakeup": 10, "double-latch": 29}
	for _, mutation := range MutationNames() {
		failed := 0
		for seed := uint64(1); seed <= 40; seed++ {
			s := Generate(seed)
			s.Mutation = mutation
			if s.Run().Failed() {
				failed++
			}
		}
		if failed != want[mutation] {
			t.Errorf("mutation %q: %d of seeds 1-40 failed, want %d", mutation, failed, want[mutation])
		}
	}
}

// TestSeqAcrossUpgrade: an in-place upgrade attaches a new agent
// generation on each CPU, whose Aseq starts over. The sequence oracle
// tracks each generation on its own and must stay silent; one that
// merged the generations of a CPU would report a regression.
func TestSeqAcrossUpgrade(t *testing.T) {
	s := Scenario{Seed: 1, Policy: "central-fifo", CPUs: 4, Threads: 6,
		Horizon: 20 * sim.Millisecond, FaultSpec: "upgrade@5.000ms"}
	if res := s.Run(); res.Failed() {
		t.Fatalf("%s: unexpected violations: %v", s.Repro(), res.Violations)
	}
}
