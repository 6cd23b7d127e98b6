package snap

import (
	"fmt"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// ComponentEntry pairs a component with its stable key. Save serializes
// entries in slice order, and restore rebuilds and overlays them in the
// same order, so inter-component references (a source feeding a pool)
// resolve if the caller keeps dependency order.
type ComponentEntry struct {
	Key string
	C   Component
}

// Target names every part of a machine the snapshot walks.
type Target struct {
	Eng *sim.Engine

	Topo *hw.Topology
	Cost *hw.CostModel

	K     *kernel.Kernel
	Ghost *ghostcore.Class

	Sets       []*agentsdk.AgentSet
	Components []ComponentEntry
}

// Save serializes the machine at a quiescent barrier. It returns a
// descriptive error naming the culprit when any live state falls outside
// the snapshot envelope (an unregistered thread body, a closure event,
// an open fault window, a policy without the snapshot capability).
func Save(t *Target) (*Image, error) {
	if f, ok := t.K.Faults().OpenWindow(t.Eng.Now()); ok {
		return nil, fmt.Errorf("snap: fault window %s is open at %v; the image holds neither fault windows nor the injector's random stream", f, t.Eng.Now())
	}
	core := &CoreImage{
		Topology: t.Topo.Config(),
		Cost:     *t.Cost,
		Now:      int64(t.Eng.Now()),
		Seq:      t.Eng.Seq(),
		Executed: t.Eng.Executed,
		MaxQueue: t.Eng.MaxQueue,
	}

	kimg, err := t.K.SaveImage()
	if err != nil {
		return nil, fmt.Errorf("snap: kernel: %w", err)
	}
	core.Kernel = kimg
	if t.Ghost != nil {
		gimg, err := t.Ghost.SaveImage()
		if err != nil {
			return nil, fmt.Errorf("snap: ghost: %w", err)
		}
		core.Ghost = gimg
	}
	for _, set := range t.Sets {
		rec, err := set.SaveRec()
		if err != nil {
			return nil, fmt.Errorf("snap: agents: %w", err)
		}
		core.Sets = append(core.Sets, rec)
	}
	for _, ce := range t.Components {
		data, err := ce.C.SnapshotSave()
		if err != nil {
			return nil, fmt.Errorf("snap: component %q: %w", ce.Key, err)
		}
		core.Components = append(core.Components, ComponentRec{Key: ce.Key, Kind: ce.C.SnapshotKind(), Data: data})
	}

	ix, err := newEventIndex(t, t.Sets, t.Components)
	if err != nil {
		return nil, err
	}
	for _, pe := range t.Eng.Pending() {
		rec, err := ix.record(pe)
		if err != nil {
			return nil, err
		}
		core.Events = append(core.Events, rec)
	}
	return NewImage(core)
}
