package check_test

import (
	"fmt"
	"reflect"
	"testing"

	"ghost"
	"ghost/internal/check"
)

// TestStatusWordIndexMatchesFullScanOnRestore: ghost.Restore attaches the
// oracles before it overlays the status words, with no status-word event,
// so the index must pick up the restored OnCpu claims from its
// first-switch-in seed. The snapshot is taken while spinners claim OnCpu,
// and one waiting spinner's word is forged to claim a running spinner's
// CPU, so both oracles have something to report.
func TestStatusWordIndexMatchesFullScanOnRestore(t *testing.T) {
	m := ghost.NewMachine(ghost.XeonE5())
	defer m.Shutdown()
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 2, 3))
	// Shinjuku's 30 µs slice preempts the spinners, so the restored run
	// switches.
	m.StartAgents(enc, ghost.NewShinjukuPolicy(), ghost.Global())
	for i := 0; i < 5; i++ {
		m.SpawnSpinner(ghost.ThreadOpts{Name: fmt.Sprintf("spin%d", i), Class: ghost.Ghost(enc)}, 15*ghost.Microsecond)
	}
	m.Run(ghost.Millisecond)
	var running, waiting *ghost.StatusWord
	for _, th := range enc.Threads() {
		if sw := enc.StatusWord(th); sw.OnCPU && th.State() == ghost.ThreadRunning {
			running = sw
		} else if !sw.OnCPU {
			waiting = sw
		}
	}
	if running == nil || waiting == nil {
		t.Fatalf("want a spinner claiming OnCpu and one waiting at 1 ms, got %v and %v", running, waiting)
	}
	waiting.OnCPU, waiting.CPU = true, running.CPU
	snapshot, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	run := func() []ghost.InvariantViolation {
		r, err := ghost.Restore(snapshot, ghost.WithInvariants())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Shutdown()
		r.Run(2 * ghost.Millisecond)
		r.Invariants().Finish(r.Now())
		return r.Invariants().Violations()
	}
	got := run()
	want := func() []ghost.InvariantViolation {
		defer check.UseFullScanStatusWord()()
		return run()
	}()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("indexed oracle diverged from the full scan after restore:\nindexed:   %v\nfull scan: %v", got, want)
	}
	n := 0
	for _, v := range got {
		if v.Oracle == "status-word" {
			n++
		}
	}
	if n == 0 {
		t.Fatalf("the forged OnCpu claim raised no status-word violation: %v", got)
	}
}
