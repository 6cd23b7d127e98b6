package ghost

import (
	"fmt"
	"io"

	"ghost/internal/agentsdk"
	"ghost/internal/hw"
	"ghost/internal/policies"
	"ghost/internal/snap"
)

// Checkpoint/restore (DESIGN.md §3j). A Snapshot is a versioned,
// self-contained capture of a machine at a quiescent barrier; Restore
// rebuilds a machine whose forward behavior is byte-identical —
// digest(run 0→T) == digest(restore(snap@t), run t→T). Snapshots
// serialize no thread-body coroutine stacks: only the library's own
// state-machine bodies (worker pools, spinners) are snapshot-capable,
// and workload state rides via SnapshotComponent.

// SnapshotVersion is the snapshot wire-format version this build speaks.
const SnapshotVersion = snap.Version

// ErrSnapshotVersion is returned (wrapped) when decoding a snapshot
// written by an incompatible format version.
var ErrSnapshotVersion = snap.ErrVersion

// ErrSnapshotCorrupt is returned (wrapped) when a snapshot fails
// structural validation: bad magic, checksum mismatch, truncation.
var ErrSnapshotCorrupt = snap.ErrCorrupt

// Snapshot is an opaque machine checkpoint. Obtain one from
// Machine.Snapshot or ReadSnapshot; turn it back into a machine with
// Restore.
type Snapshot struct {
	img *snap.Image
}

// Digest returns the hex sha256 of the snapshot's core state — the
// fingerprint the determinism gates compare.
func (s *Snapshot) Digest() string { return s.img.Digest() }

// Time returns the simulated instant the snapshot was taken at.
func (s *Snapshot) Time() Time { return s.img.Now() }

// WriteTo serializes the snapshot container (implements io.WriterTo).
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	err := s.img.Encode(cw)
	return cw.n, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadSnapshot decodes a snapshot container. Errors unwrap to
// ErrSnapshotVersion or ErrSnapshotCorrupt.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	img, err := snap.Decode(r)
	if err != nil {
		return nil, err
	}
	return &Snapshot{img: img}, nil
}

// SnapshotComponent is a machine component (workload source, pool,
// recorder) that rides in snapshots: Kind names its restore factory,
// Save/Load carry its private state. Register instances with
// Machine.AddSnapshotComponent.
type SnapshotComponent interface {
	SnapshotKind() string
	SnapshotSave() ([]byte, error)
	SnapshotLoad(data []byte) error
}

// AddSnapshotComponent registers a component under a stable key so its
// state is captured by Machine.Snapshot. Registration order is
// serialization order — add a component before others that depend on
// it. Re-adding a key replaces the entry.
func (m *Machine) AddSnapshotComponent(key string, c SnapshotComponent) {
	if kb, ok := c.(interface{ BindSnapshotKey(string) }); ok {
		kb.BindSnapshotKey(key)
	}
	m.setComponent(key, c)
}

// setComponent replaces the component under key, or appends it.
func (m *Machine) setComponent(key string, c SnapshotComponent) {
	for i := range m.comps {
		if m.comps[i].Key == key {
			m.comps[i].C = c
			return
		}
	}
	m.comps = append(m.comps, snap.ComponentEntry{Key: key, C: c})
}

// SnapshotComponents returns the registered component for key, nil if
// none.
func (m *Machine) SnapshotComponent(key string) SnapshotComponent {
	for i := range m.comps {
		if m.comps[i].Key == key {
			return m.comps[i].C
		}
	}
	return nil
}

// snapTarget assembles the internal snapshot walk for this machine.
func (m *Machine) snapTarget() *snap.Target {
	return &snap.Target{
		Eng:        m.eng,
		Topo:       m.k.Topology(),
		Cost:       m.k.Cost(),
		K:          m.k,
		Ghost:      m.Ghost,
		Sets:       m.sets,
		Components: m.comps,
	}
}

// Snapshot captures the machine at the current quiescent barrier (i.e.
// between Run calls). It returns a descriptive error when live state
// falls outside the snapshot envelope: an ad-hoc thread body that was
// never registered, a pending Machine.After closure, a policy without
// the snapshot capability, an agent upgrade in flight.
func (m *Machine) Snapshot() (*Snapshot, error) {
	img, err := snap.Save(m.snapTarget())
	if err != nil {
		return nil, err
	}
	return &Snapshot{img: img}, nil
}

// WithRestoredComponent supplies a restore-time factory for the
// component stored under key — required when the component's
// construction needs closures the snapshot cannot carry (e.g. a Poisson
// source's sink). The factory runs before any thread is re-spawned; its
// serialized state is overlaid afterwards. Only meaningful as a Restore
// option.
func WithRestoredComponent(key string, f func(m *Machine) (SnapshotComponent, error)) MachineOption {
	return func(c *machineConfig) {
		if c.restoreComps == nil {
			c.restoreComps = map[string]func(*Machine) (SnapshotComponent, error){}
		}
		c.restoreComps[key] = f
	}
}

// Restore rebuilds a machine from a snapshot. Topology and cost model
// come from the snapshot itself; the remaining options (WithTrace,
// WithInvariants, WithRestoredComponent, ...) apply to the new machine.
// The restored machine's forward behavior is byte-identical to the
// original's from the snapshot point.
func Restore(s *Snapshot, opts ...MachineOption) (*Machine, error) {
	core := s.img.Core
	if err := core.Topology.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if err := core.Cost.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	topo := hw.NewTopology(core.Topology)
	all := append([]MachineOption{WithCostModel(core.Cost)}, opts...)
	var cfg machineConfig
	for _, o := range all {
		o(&cfg)
	}
	m := NewMachine(topo, all...)
	lo := snap.LoadOpts{
		// Mirror each rebuilt component onto the machine immediately, so a
		// later component's restore factory can reach an earlier one via
		// m.SnapshotComponent (a source finding its pool).
		OnComponent: func(key string, c snap.Component) { m.setComponent(key, c) },
	}
	if len(cfg.restoreComps) > 0 {
		lo.ComponentOverrides = map[string]snap.ComponentFactory{}
		for key, f := range cfg.restoreComps {
			f := f
			lo.ComponentOverrides[key] = func(*snap.RestoreCtx, string) (snap.Component, error) {
				return f(m)
			}
		}
	}
	res, err := snap.Load(m.snapTarget(), s.img, lo)
	if err != nil {
		m.k.Shutdown()
		return nil, err
	}
	m.sets = res.Sets
	m.comps = res.Components
	return m, nil
}

// PolicySnapshotter is the capability a custom scheduling policy
// implements to ride along in a Machine snapshot: Kind names the factory
// registered with RegisterPolicy, Save serializes the policy's private
// state at a quiescent barrier, and Load rebuilds it on the restored
// machine (after Attach, so the tracker and context are live).
type PolicySnapshotter = agentsdk.PolicySnapshotter

// PolicyTrackerRec is one thread's serialized tracker state — the
// building block for a custom policy's PolicySnapshotter implementation.
// It has no Enqueued flag: the policy's own saved queue records that.
type PolicyTrackerRec = policies.TStateRec

// SavePolicyTracker serializes a policy tracker's thread map in TID
// order, for embedding in a custom policy's SnapshotSave payload.
func SavePolicyTracker(tr *PolicyTracker) []PolicyTrackerRec {
	return policies.SaveTrackerRecs(tr)
}

// LoadPolicyTracker rebuilds a tracker's thread map from records saved
// by SavePolicyTracker, resolving TIDs against the restored machine via
// the policy's attach-time context. Existing OnRunnable/OnRemoved
// callbacks are preserved. Every thread comes back with Enqueued false;
// a policy sets it on each thread it puts back in its reloaded queue.
func LoadPolicyTracker(tr *PolicyTracker, ctx *PolicyContext, recs []PolicyTrackerRec) error {
	return policies.LoadTrackerRecs(tr, ctx, recs)
}

// RegisterPolicy registers a factory that rebuilds a custom scheduling
// policy shell during Restore. The shell's SnapshotLoad then overlays
// the serialized state. Kinds are global; register in an init function.
func RegisterPolicy(kind string, f func() (any, error)) {
	snap.RegisterPolicy(kind, func(*snap.RestoreCtx) (any, error) { return f() })
}

// AgentSets returns the machine's agent sets in start order. On a
// restored machine these are the reconstructed sets, so a caller that
// lost its StartAgents return values (Restore builds the sets itself)
// can re-find them here.
func (m *Machine) AgentSets() []*AgentSet { return m.sets }
