package check

import (
	"errors"
	"fmt"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/snap"
)

// Time-travel repro (DESIGN.md §3j): a checked run can take periodic
// snapshots at quiescent barriers, and a failing scenario then rewinds
// from the last checkpoint before its first violation instead of
// replaying the whole history — `ghost-check -repro ... -snapshot-every`
// reports how many events the rewind replayed versus skipped.
//
// The oracles attach fresh after a rewind (they must not observe the
// construction-time noise a restore overlay erases), so invariants whose
// evidence predates the checkpoint — a double latch opened before it, a
// message dropped before it — are checked only from the checkpoint
// forward. The rewind reproduces the violation itself because the
// restored machine's forward history is byte-identical.

func init() {
	snap.RegisterBody("check.worker", func(_ *snap.RestoreCtx, rec kernel.BodyRec, r *sim.Rand) (kernel.ThreadFunc, error) {
		if len(rec.Args) != 1 || r == nil {
			return nil, fmt.Errorf("check.worker wants 1 arg and a random stream, got %d args", len(rec.Args))
		}
		if rec.Args[0] < 1 {
			return nil, fmt.Errorf("%w: check.worker burst bound %d is below 1", snap.ErrCorrupt, rec.Args[0])
		}
		return workerBody(r, int(rec.Args[0])), nil
	})
	snap.RegisterBody("check.noise", func(_ *snap.RestoreCtx, _ kernel.BodyRec, r *sim.Rand) (kernel.ThreadFunc, error) {
		if r == nil {
			return nil, errors.New("check.noise wants a random stream")
		}
		return noiseBody(r), nil
	})
}

// target assembles the snapshot walk for the rig.
func (rg *rig) target(sets []*agentsdk.AgentSet) *snap.Target {
	return &snap.Target{
		Eng:   rg.eng,
		Topo:  rg.topo,
		Cost:  &rg.cm,
		K:     rg.k,
		Ghost: rg.g,
		Sets:  sets,
	}
}

// SnapshotCapable reports whether the scenario stays inside the
// snapshot envelope; when it does not, reason names the first blocker
// (the checkpoint loop would skip every boundary).
func (s Scenario) SnapshotCapable() (bool, string) {
	if s.FaultSpec != "" {
		return false, "fault plans schedule closure events"
	}
	switch s.Policy {
	case "search", "coresched":
		return false, fmt.Sprintf("policy %q has no snapshot capability", s.Policy)
	}
	return true, ""
}

// Checkpoint is one snapshot of a checked run, taken at a quiescent
// barrier. Its image counts the engine events up to the barrier — the
// events a rewind from this checkpoint skips.
type Checkpoint struct {
	At  sim.Time
	Img *snap.Image
}

// CheckpointedResult is a scenario run that carried periodic snapshots.
type CheckpointedResult struct {
	Result      *Result
	Checkpoints []*Checkpoint
	// Skips counts boundaries where the machine state fell outside the
	// snapshot envelope; SkipReasons holds their save errors in order.
	Skips         int
	SkipReasons   []string
	FinalExecuted uint64
}

// RunWithCheckpoints executes the scenario like Run, additionally taking
// an in-memory snapshot at every multiple of `every` simulated time
// (0 defaults to a quarter of the horizon). The run itself is
// byte-identical to Run — snapshots are read-only and the chunked event
// loop replays the same history.
func (s Scenario) RunWithCheckpoints(every sim.Duration) *CheckpointedResult {
	if every <= 0 {
		every = s.Horizon / 4
	}
	if every <= 0 {
		every = sim.Millisecond
	}
	rg := s.buildShell()
	ck := s.attach(rg)
	sets := s.populate(rg)
	cr := &CheckpointedResult{}
	for elapsed := sim.Duration(0); elapsed < s.Horizon; {
		chunk := every
		if rem := s.Horizon - elapsed; chunk > rem {
			chunk = rem
		}
		rg.eng.RunFor(chunk)
		elapsed += chunk
		if elapsed >= s.Horizon {
			break // the final barrier ends the run; it is not a rewind point
		}
		img, err := snap.Save(rg.target(sets))
		if err != nil {
			cr.Skips++
			cr.SkipReasons = append(cr.SkipReasons, err.Error())
			continue
		}
		cr.Checkpoints = append(cr.Checkpoints, &Checkpoint{At: rg.eng.Now(), Img: img})
	}
	ck.Finish(rg.eng.Now())
	cr.FinalExecuted = rg.eng.Executed
	rg.k.Shutdown()
	cr.Result = &Result{Scenario: s, Violations: ck.Violations()}
	return cr
}

// RewindReport describes one time-travel reproduction: the run resumed
// From a checkpoint, Replayed that many events to the horizon, and
// skipped the Skipped events before the checkpoint.
type RewindReport struct {
	From     sim.Time
	Replayed uint64
	Skipped  uint64
	Result   *Result
}

// Rewind reproduces a failing checkpointed run from the last checkpoint
// at or before its first violation: restore the snapshot onto a fresh
// shell, attach fresh oracles (primed with the in-flight ring messages),
// and run the remaining horizon.
func Rewind(s Scenario, cr *CheckpointedResult) (*RewindReport, error) {
	if !cr.Result.Failed() {
		return nil, errors.New("check: nothing to rewind from: the run had no violations")
	}
	best := cr.CheckpointBefore(cr.Result.Violations[0].Time)
	if best == nil {
		return nil, fmt.Errorf("check: no checkpoint at or before the first violation (t=%v)",
			cr.Result.Violations[0].Time)
	}
	return RewindFrom(s, best.Img)
}

// CheckpointBefore returns the latest checkpoint taken at or before t,
// nil if none — the rewind point for a violation observed at t.
func (cr *CheckpointedResult) CheckpointBefore(t sim.Time) *Checkpoint {
	var best *Checkpoint
	for _, ckpt := range cr.Checkpoints {
		if ckpt.At <= t && (best == nil || ckpt.At > best.At) {
			best = ckpt
		}
	}
	return best
}

// RewindFrom resumes the scenario from an arbitrary checkpoint image —
// one taken by RunWithCheckpoints in this process or decoded from a
// .snap file a previous `ghost-check -snapshot-every` run wrote — and
// checks the remaining horizon under fresh oracles.
func RewindFrom(s Scenario, img *snap.Image) (*RewindReport, error) {
	at := img.Now()
	if sim.Duration(at) >= s.Horizon {
		return nil, fmt.Errorf("check: checkpoint t=%v is at or past the scenario horizon %v", at, s.Horizon)
	}
	rg := s.buildShell()
	if _, err := snap.Load(rg.target(nil), img, snap.LoadOpts{}); err != nil {
		return nil, fmt.Errorf("check: rewind restore: %w", err)
	}
	ck := s.attach(rg)
	ck.PrimeResumed()
	rg.eng.RunFor(s.Horizon - sim.Duration(at))
	ck.Finish(rg.eng.Now())
	rep := &RewindReport{
		From:     at,
		Replayed: rg.eng.Executed - img.Core.Executed,
		Skipped:  img.Core.Executed,
		Result:   &Result{Scenario: s, Violations: ck.Violations()},
	}
	rg.k.Shutdown()
	return rep, nil
}

// PrimeResumed seeds history-dependent oracle state from the machine's
// current (restored) state: every message still queued in an enclave
// ring is replayed to the oracles as an intent plus a delivery, so the
// conservation and lost-thread ledgers see a consistent mid-stream
// picture instead of flagging drains of messages they never saw posted.
func (c *Checker) PrimeResumed() {
	for _, e := range c.g.Enclaves() {
		e.EachQueuedMessage(func(q *ghostcore.Queue, m ghostcore.Message) {
			for _, o := range c.oracles {
				if x, ok := o.(ghostcore.MsgIntentObserver); ok {
					x.MsgIntent(e, m.TID, m.Type)
				}
				if x, ok := o.(ghostcore.MsgDeliveredObserver); ok {
					x.MsgDelivered(e, q, m, false, false)
				}
			}
		})
	}
}
