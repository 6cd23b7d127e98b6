package snap

import (
	"fmt"
	"sort"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// LoadOpts customizes a restore.
type LoadOpts struct {
	// ComponentOverrides take precedence over the kind registry, by
	// component KEY — required for components whose construction needs
	// owner-bound closures (a Poisson source's sink).
	ComponentOverrides map[string]ComponentFactory
	// OnComponent, when set, is invoked right after each component shell
	// is rebuilt (in saved order), before any thread spawns — callers use
	// it to expose earlier components to later factories.
	OnComponent func(key string, c Component)
}

// Result reports what Load rebuilt, in image order.
type Result struct {
	Sets       []*agentsdk.AgentSet
	Components []ComponentEntry
}

// Load restores img onto a freshly built machine skeleton: the target
// must have the same topology and cost model as the saved machine, with
// its kernel and classes constructed but no threads, enclaves or
// components yet. On return the machine's forward behavior is
// byte-identical to the original's from the snapshot point.
//
// The restore runs in phases: component shells, enclave shells, a global
// TID-ordered spawn pass (body threads interleaved with agent sets, TIDs
// pinned), an engine reset that erases every construction side effect,
// then a verbatim overlay of all serialized state, and finally the
// pending events with their original (at, seq) pairs.
func Load(t *Target, img *Image, opts LoadOpts) (*Result, error) {
	core := img.Core
	if got, want := t.Topo.NumCPUs(), len(core.Kernel.CPUs); got != want {
		return nil, fmt.Errorf("snap: snapshot has %d CPUs, machine has %d", want, got)
	}

	ctx := &RestoreCtx{
		Kernel:     t.K,
		components: map[string]Component{},
		enclaves:   nil,
	}

	// Phase 1: component shells, in saved order.
	res := &Result{}
	for _, crec := range core.Components {
		f, err := componentFactory(crec.Key, crec.Kind, opts.ComponentOverrides)
		if err != nil {
			return nil, err
		}
		c, err := f(ctx, crec.Key)
		if err != nil {
			return nil, fmt.Errorf("snap: component %q: %w", crec.Key, err)
		}
		if c.SnapshotKind() != crec.Kind {
			return nil, fmt.Errorf("snap: component %q rebuilt as kind %q, snapshot has %q", crec.Key, c.SnapshotKind(), crec.Kind)
		}
		ctx.components[crec.Key] = c
		res.Components = append(res.Components, ComponentEntry{Key: crec.Key, C: c})
		if opts.OnComponent != nil {
			opts.OnComponent(crec.Key, c)
		}
	}

	// Phase 2: enclave shells, ids pinned.
	if core.Ghost != nil {
		if t.Ghost == nil {
			return nil, fmt.Errorf("snap: snapshot has ghOSt state but the machine has no ghost class")
		}
		encs, err := t.Ghost.RestoreEnclaveShells(core.Ghost)
		if err != nil {
			return nil, fmt.Errorf("%w: ghost: %w", ErrCorrupt, err)
		}
		ctx.enclaves = make(map[int]*ghostcore.Enclave, len(encs))
		for _, e := range encs {
			ctx.enclaves[e.ID()] = e
		}
	}

	// Phase 3: global TID-ordered spawn pass.
	if err := spawnPass(t, core, ctx, opts, res); err != nil {
		return nil, err
	}

	// Phase 4: engine reset — erases every event and sequence draw the
	// construction above produced.
	t.Eng.Reset(sim.Time(core.Now), core.Seq, core.Executed, core.MaxQueue)

	// Phase 5: verbatim state overlay.
	if err := t.K.RestoreImage(core.Kernel); err != nil {
		return nil, fmt.Errorf("%w: kernel: %w", ErrCorrupt, err)
	}
	if core.Ghost != nil {
		if err := t.Ghost.RestoreImage(core.Ghost); err != nil {
			return nil, fmt.Errorf("%w: ghost: %w", ErrCorrupt, err)
		}
	}
	for i, set := range res.Sets {
		if err := set.RestoreImage(core.Sets[i]); err != nil {
			return nil, fmt.Errorf("%w: agents: %w", ErrCorrupt, err)
		}
	}
	for _, crec := range core.Components {
		c := ctx.components[crec.Key]
		if kb, ok := c.(KeyBinder); ok {
			kb.BindSnapshotKey(crec.Key)
		}
		if err := c.SnapshotLoad(crec.Data); err != nil {
			return nil, fmt.Errorf("%w: component %q: %w", ErrCorrupt, crec.Key, err)
		}
	}

	// Phase 6: pending events with their original (at, seq) pairs; each
	// sets the owner state it implies (a CPU's burning, a latch in flight).
	// The engine draws each seq once, so no two events share one.
	ix, err := newEventIndex(t, res.Sets, res.Components)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	seqs := make(map[uint64]bool, len(core.Events))
	for i := range core.Events {
		seq := core.Events[i].Seq
		if seqs[seq] {
			return nil, fmt.Errorf("%w: event %d: seq %d is another pending event's", ErrCorrupt, i, seq)
		}
		seqs[seq] = true
		if err := ix.restore(t.Eng, &core.Events[i]); err != nil {
			return nil, fmt.Errorf("%w: event %d: %v", ErrCorrupt, i, err)
		}
	}
	return res, nil
}

// spawnItem is one entry of the merged TID-ordered spawn pass: either a
// single body thread or a whole agent set (ordered by its lowest TID).
type spawnItem struct {
	tid    int
	thread *kernel.ThreadRec
	set    *agentsdk.SetRec
	setIdx int
}

func spawnPass(t *Target, core *CoreImage, ctx *RestoreCtx, opts LoadOpts, res *Result) error {
	// Map ghost-managed TIDs to their enclave for class routing.
	tidEnc := map[int]int{}
	if core.Ghost != nil {
		for _, erec := range core.Ghost.Enclaves {
			for _, tr := range erec.Threads {
				tidEnc[tr.TID] = erec.ID
			}
		}
	}
	var items []spawnItem
	for i := range core.Kernel.Threads {
		rec := &core.Kernel.Threads[i]
		if rec.Body != nil && rec.Body.Kind == agentsdk.RunnerBody {
			continue // agent runners re-spawn with their set
		}
		items = append(items, spawnItem{tid: rec.TID, thread: rec})
	}
	for i, srec := range core.Sets {
		items = append(items, spawnItem{tid: srec.MinTID(), set: srec, setIdx: i})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].tid < items[j].tid })

	ac, _ := t.K.Class("agent").(*kernel.AgentClass)
	res.Sets = make([]*agentsdk.AgentSet, len(core.Sets))
	for _, it := range items {
		if it.set != nil {
			if ac == nil {
				return fmt.Errorf("snap: snapshot has agent sets but the machine has no agent class")
			}
			enc := ctx.Enclave(it.set.EncID)
			if enc == nil {
				return fmt.Errorf("snap: agent set references missing enclave %d", it.set.EncID)
			}
			pf, err := policyFactory(it.set.Policy.Kind)
			if err != nil {
				return err
			}
			policy, err := pf(ctx)
			if err != nil {
				return fmt.Errorf("snap: policy %q: %w", it.set.Policy.Kind, err)
			}
			if err := t.K.SetNextTID(kernel.TID(it.tid)); err != nil {
				return fmt.Errorf("%w: agent set: %v", ErrCorrupt, err)
			}
			res.Sets[it.setIdx] = agentsdk.Start(t.K, enc, ac, policy)
			continue
		}
		if err := spawnBody(t, ctx, opts, tidEnc, it.thread); err != nil {
			return err
		}
	}
	return nil
}

func spawnBody(t *Target, ctx *RestoreCtx, opts LoadOpts, tidEnc map[int]int, rec *kernel.ThreadRec) error {
	if rec.Body == nil {
		return fmt.Errorf("snap: thread T%d (%s) has no body descriptor", rec.TID, rec.Name)
	}
	f, err := bodyFactory(rec.Body.Kind)
	if err != nil {
		return fmt.Errorf("snap: thread T%d (%s): %w", rec.TID, rec.Name, err)
	}
	var r *sim.Rand
	if rec.Body.Rand != nil {
		// State is overlaid after the spawn; the seed is a placeholder.
		r = sim.NewRand(1)
	}
	fn, err := f(ctx, *rec.Body, r)
	if err != nil {
		return fmt.Errorf("snap: thread T%d (%s): %w", rec.TID, rec.Name, err)
	}
	var aff kernel.Mask
	for _, id := range rec.Affinity {
		aff.Set(hw.CPUID(id))
	}
	sopts := kernel.SpawnOpts{Name: rec.Name, Affinity: aff, Nice: rec.Nice}
	if rec.Tag != nil {
		sopts.Tag = int(*rec.Tag)
	}
	if err := t.K.SetNextTID(kernel.TID(rec.TID)); err != nil {
		return fmt.Errorf("%w: thread %s: %v", ErrCorrupt, rec.Name, err)
	}
	var th *kernel.Thread
	if rec.Class == "ghost" {
		enc := ctx.Enclave(tidEnc[rec.TID])
		if enc == nil {
			return fmt.Errorf("snap: ghost thread T%d (%s) belongs to no known enclave", rec.TID, rec.Name)
		}
		th = enc.SpawnThread(sopts, fn)
	} else {
		sopts.Class = t.K.Class(rec.Class)
		if sopts.Class == nil {
			return fmt.Errorf("snap: thread T%d (%s): unknown class %q", rec.TID, rec.Name, rec.Class)
		}
		th = t.K.Spawn(sopts, fn)
	}
	if int(th.TID()) != rec.TID {
		return fmt.Errorf("snap: thread %s re-spawned as T%d, snapshot has T%d", rec.Name, th.TID(), rec.TID)
	}
	th.SetBodyDesc(&kernel.BodyDesc{Kind: rec.Body.Kind, Key: rec.Body.Key, Args: append([]int64(nil), rec.Body.Args...), Rand: r})
	return nil
}
