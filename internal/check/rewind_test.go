package check

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ghost/internal/faults"
	"ghost/internal/ghostcore"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/snap"
)

// The directed time-travel regression: a snapshot-capable scenario with a
// seeded protocol bug must (a) fail identically whether run plain or
// chunked with checkpoints, and (b) reproduce the failure from a rewind
// that replays strictly fewer events than a from-scratch re-run.
func TestRewindReproducesViolation(t *testing.T) {
	s := Generate(3)
	if ok, why := s.SnapshotCapable(); !ok {
		t.Fatalf("seed 3 fell outside the snapshot envelope (%s); pick a new directed seed", why)
	}
	s.Mutation = "drop-wakeup"

	cr := s.RunWithCheckpoints(s.Horizon / 8)
	if !cr.Result.Failed() {
		t.Fatal("mutated scenario did not fail; the directed case has rotted")
	}
	if cr.Skips > 0 {
		t.Fatalf("checkpoint skips on a capable scenario: %v", cr.SkipReasons)
	}
	if len(cr.Checkpoints) == 0 {
		t.Fatal("no checkpoints taken")
	}

	// Chunked execution with read-only snapshots must not perturb the run.
	plain := s.Run()
	if !reflect.DeepEqual(plain.Violations, cr.Result.Violations) {
		t.Fatalf("checkpointed run diverged from plain run:\nplain:  %v\nchunked: %v",
			plain.Violations, cr.Result.Violations)
	}

	rep, err := Rewind(s, cr)
	if err != nil {
		t.Fatalf("rewind: %v", err)
	}
	if !rep.Result.Failed() {
		t.Fatal("rewind did not reproduce a violation")
	}
	if rep.Replayed >= cr.FinalExecuted {
		t.Fatalf("rewind replayed %d events, not fewer than the full run's %d",
			rep.Replayed, cr.FinalExecuted)
	}
	// The restored machine's forward history is byte-identical, so the
	// rewind's replayed events plus the skipped prefix must account for
	// exactly the full run.
	if got := rep.Replayed + rep.Skipped; got != cr.FinalExecuted {
		t.Fatalf("replayed(%d) + skipped(%d) = %d, want %d: the rewound run diverged",
			rep.Replayed, rep.Skipped, got, cr.FinalExecuted)
	}
	if rep.From <= 0 || rep.From >= s.Horizon {
		t.Fatalf("implausible rewind point t=%v (horizon %v)", rep.From, s.Horizon)
	}
}

// A healthy capable scenario takes its checkpoints with zero skips and
// reports nothing to rewind from.
func TestCheckpointsOnPassingRun(t *testing.T) {
	s := Generate(3)
	cr := s.RunWithCheckpoints(s.Horizon / 4)
	if cr.Result.Failed() {
		t.Fatalf("unmutated seed 3 failed: %v", cr.Result.Violations)
	}
	if cr.Skips > 0 {
		t.Fatalf("skips on a capable scenario: %v", cr.SkipReasons)
	}
	if want := 3; len(cr.Checkpoints) != want {
		t.Fatalf("got %d checkpoints, want %d", len(cr.Checkpoints), want)
	}
	if _, err := Rewind(s, cr); err == nil {
		t.Fatal("Rewind on a passing run should error")
	}
}

func TestSnapshotCapableGates(t *testing.T) {
	s := Scenario{Policy: "central-fifo", FaultSpec: "crash@1ms"}
	if ok, why := s.SnapshotCapable(); ok || why == "" {
		t.Fatal("fault-injecting scenario must be snapshot-incapable with a reason")
	}
	s = Scenario{Policy: "search"}
	if ok, why := s.SnapshotCapable(); ok || why == "" {
		t.Fatal("search policy must be snapshot-incapable with a reason")
	}
	s = Scenario{Policy: "central-fifo"}
	if ok, why := s.SnapshotCapable(); !ok || why != "" {
		t.Fatalf("plain central-fifo should be capable, got %v %q", ok, why)
	}
}

// lastMsg records the type of the latest message posted for each thread.
type lastMsg struct {
	Base
	of map[kernel.TID]ghostcore.MsgType
}

func (o *lastMsg) Name() string { return "last-msg" }

func (o *lastMsg) MsgIntent(_ *ghostcore.Enclave, tid kernel.TID, typ ghostcore.MsgType) {
	o.of[tid] = typ
}

// Restore builds every check body as spawned, wherever it was parked: a
// worker in Run, in a Sleep's Block and in the Run that follows a Yield
// (its latest message is THREAD_YIELD), and a noise thread in Run and in
// Block. Each case is the first 10 µs barrier of a checkpointed run that
// shows it; that snapshot goes through the codec onto a fresh shell,
// runs 1 ms, and must reach the original run's digest there.
func TestRewindRestoresBodiesWhereParked(t *testing.T) {
	s := Generate(3)
	if ok, why := s.SnapshotCapable(); !ok || !s.ghostPolicy() {
		t.Fatalf("seed 3 must be a snapshot-capable ghOSt scenario (%s)", why)
	}
	const step, ahead = 10 * sim.Microsecond, sim.Millisecond
	msgs := &lastMsg{of: map[kernel.TID]ghostcore.MsgType{}}
	cases := []struct {
		what  string
		kind  string
		match func(th *kernel.Thread) bool
		wire  []byte   // the snapshot, once a barrier shows the case
		due   sim.Time // when the original run's digest is compared
	}{
		{what: "worker parked in Run", kind: "check.worker", match: (*kernel.Thread).Ran},
		{what: "worker parked in Block", kind: "check.worker", match: blocked},
		{what: "worker in the Run after a Yield", kind: "check.worker", match: func(th *kernel.Thread) bool {
			return th.Ran() && msgs.of[th.TID()] == ghostcore.MsgThreadYield
		}},
		{what: "noise parked in Run", kind: "check.noise", match: (*kernel.Thread).Ran},
		{what: "noise parked in Block", kind: "check.noise", match: blocked},
	}

	rg := s.buildShell()
	Attach(rg.k, rg.g, msgs)
	sets := s.populate(rg)
	defer rg.k.Shutdown()
	for left := len(cases); left > 0; {
		if rg.eng.Now()+sim.Time(step) > sim.Time(s.Horizon) {
			for _, c := range cases {
				if c.wire == nil || c.due > 0 {
					t.Errorf("%s: not verified before the %v horizon", c.what, s.Horizon)
				}
			}
			return
		}
		rg.eng.RunFor(step)
		img, err := snap.Save(rg.target(sets))
		if err != nil {
			t.Fatalf("Save at %v: %v", rg.eng.Now(), err)
		}
		for i := range cases {
			c := &cases[i]
			switch {
			case c.wire == nil && showsCase(rg.k, c.kind, c.match):
				var buf bytes.Buffer
				if err := img.Encode(&buf); err != nil {
					t.Fatalf("%s: Encode: %v", c.what, err)
				}
				c.wire, c.due = buf.Bytes(), rg.eng.Now()+sim.Time(ahead)
			case c.due == rg.eng.Now():
				if got := restoreAndRun(t, s, c.wire, ahead); got != img.Digest() {
					t.Errorf("%s: restore at %v not transparent: digest %s, want %s",
						c.what, c.due-sim.Time(ahead), got, img.Digest())
				}
				c.due = 0
				left--
			}
		}
	}
}

func blocked(th *kernel.Thread) bool { return th.State() == kernel.StateBlocked }

// showsCase reports whether a live thread with body kind matches. The
// machine was built, not restored, so its TIDs run densely from 1.
func showsCase(k *kernel.Kernel, kind string, match func(*kernel.Thread) bool) bool {
	for tid := kernel.TID(1); k.Thread(tid) != nil; tid++ {
		th := k.Thread(tid)
		if d := th.BodyDesc(); th.State() != kernel.StateDead && d != nil && d.Kind == kind && match(th) {
			return true
		}
	}
	return false
}

// restoreAndRun decodes wire onto a fresh shell of s, runs it for d and
// returns the digest there.
func restoreAndRun(t *testing.T, s Scenario, wire []byte, d sim.Duration) string {
	t.Helper()
	img, err := snap.Decode(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	rg := s.buildShell()
	defer rg.k.Shutdown()
	res, err := snap.Load(rg.target(nil), img, snap.LoadOpts{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rg.eng.RunFor(d)
	out, err := snap.Save(rg.target(res.Sets))
	if err != nil {
		t.Fatalf("Save after restore: %v", err)
	}
	return out.Digest()
}

// A check.worker record whose burst bound is below 1 is corrupt: the
// rebuilt worker's first draw would panic in the spawn pass.
func TestRestoreRejectsWorkerBurstBelowOne(t *testing.T) {
	s := Generate(3)
	cr := s.RunWithCheckpoints(s.Horizon / 4)
	img := cr.Checkpoints[0].Img
	for i := range img.Core.Kernel.Threads {
		if b := img.Core.Kernel.Threads[i].Body; b != nil && b.Kind == "check.worker" {
			b.Args[0] = 0
			break
		}
	}
	rg := s.buildShell()
	defer rg.k.Shutdown()
	if _, err := snap.Load(rg.target(nil), img, snap.LoadOpts{}); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("Load = %v, want ErrCorrupt", err)
	}
}

// faultCount counts the messages a fault plan duplicated and dropped.
type faultCount struct {
	Base
	dups, drops int
}

func (o *faultCount) Name() string { return "fault-count" }

func (o *faultCount) MsgDelivered(_ *ghostcore.Enclave, _ *ghostcore.Queue, _ ghostcore.Message, dup, _ bool) {
	if dup {
		o.dups++
	}
}

func (o *faultCount) MsgFaultDropped(*ghostcore.Enclave, ghostcore.Message) { o.drops++ }

// A run whose messages were duplicated and dropped restores transparently
// from any barrier once the fault windows have closed: for each ghOSt
// policy with the snapshot capability, a scenario with msgdup and msgdrop
// windows over its first 2 ms is snapshotted at every 100 µs barrier from
// there to the horizon, and each snapshot, through the codec onto a
// fresh shell, must reach the uninterrupted run's digest at the horizon.
// The fault injector's windows and random stream are not in the image,
// so a barrier inside a window is no restore point.
func TestRestoreAnywhereAfterMsgFaults(t *testing.T) {
	const step, windowEnd = 100 * sim.Microsecond, 2 * sim.Millisecond
	plan := faults.NewPlan(0).
		DupMsgs(100*sim.Microsecond, windowEnd-100*sim.Microsecond, 0.5).
		DropMsgs(100*sim.Microsecond, windowEnd-100*sim.Microsecond, 0.2)
	for _, policy := range []string{"central-fifo", "shinjuku", "percpu-fifo"} {
		t.Run(policy, func(t *testing.T) {
			s := Scenario{Seed: 5, Policy: policy, CPUs: 4, Threads: 10, Horizon: 5 * sim.Millisecond, FaultSpec: plan.String()}
			rg := s.buildShell()
			faulted := &faultCount{}
			Attach(rg.k, rg.g, faulted)
			sets := s.populate(rg)
			defer rg.k.Shutdown()
			rg.eng.RunFor(windowEnd)
			if faulted.dups == 0 || faulted.drops == 0 {
				t.Fatalf("%d messages duplicated and %d dropped: the faults shaped nothing", faulted.dups, faulted.drops)
			}
			var wires [][]byte
			for rg.eng.Now() < sim.Time(s.Horizon) {
				img, err := snap.Save(rg.target(sets))
				if err != nil {
					t.Fatalf("Save at %v: %v", rg.eng.Now(), err)
				}
				var buf bytes.Buffer
				if err := img.Encode(&buf); err != nil {
					t.Fatalf("Encode: %v", err)
				}
				wires = append(wires, buf.Bytes())
				rg.eng.RunFor(step)
			}
			end, err := snap.Save(rg.target(sets))
			if err != nil {
				t.Fatalf("Save at the horizon: %v", err)
			}
			for i, wire := range wires {
				at := windowEnd + sim.Duration(i)*step
				if got := restoreAndRun(t, s, wire, s.Horizon-at); got != end.Digest() {
					t.Fatalf("restore at %v not transparent: digest %s, want %s", at, got, end.Digest())
				}
			}
		})
	}
}

// A barrier inside an open fault window is no checkpoint: the image
// holds neither the injector's windows nor its random stream, so a
// restore from there would run on without the faults. A msgdup window
// from 100 µs for 3 ms makes RunWithCheckpoints skip the 1, 2 and 3 ms
// boundaries, naming the window, and take the 4 ms one.
func TestCheckpointsSkipOpenFaultWindow(t *testing.T) {
	plan := faults.NewPlan(0).DupMsgs(100*sim.Microsecond, 3*sim.Millisecond, 0.5)
	s := Scenario{Seed: 5, Policy: "central-fifo", CPUs: 4, Threads: 10, Horizon: 5 * sim.Millisecond, FaultSpec: plan.String()}
	cr := s.RunWithCheckpoints(sim.Millisecond)
	if cr.Skips != 3 || len(cr.Checkpoints) != 1 || cr.Checkpoints[0].At != sim.Time(4*sim.Millisecond) {
		t.Fatalf("%d skips (%v) and %d checkpoints, want the 1-3 ms boundaries skipped and one checkpoint at 4ms",
			cr.Skips, cr.SkipReasons, len(cr.Checkpoints))
	}
	want := fmt.Sprintf("fault window %s is open at %v", plan.Faults[0], sim.Time(sim.Millisecond))
	if !strings.Contains(cr.SkipReasons[0], want) {
		t.Fatalf("1 ms skip reason %q does not say %q", cr.SkipReasons[0], want)
	}
}
