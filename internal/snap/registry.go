// Package snap implements versioned snapshot/restore of a full simulated
// machine (DESIGN.md §3j). A snapshot is taken only at a quiescent
// barrier — RunUntil has returned and no event is mid-dispatch — and
// captures the engine clock and pending events, the kernel (CPUs,
// threads, baseline classes), the ghOSt class (enclaves, queues, status
// words), the agent generations (runners + policy state via the
// PolicySnapshotter capability), and any registered workload components. Restore rebuilds a machine that is
// byte-identical going forward: digest(run 0→T) equals
// digest(restore(snap@t), run t→T).
//
// Every snapshotted thread body is a kernel.Steps machine; no coroutine
// stack is ever serialized. Restore builds each body exactly as its
// spawn site does, from a registered body factory, and the kernel
// overlay then records where the thread was parked: a machine reads the
// request its thread just finished (kernel.Thread.Ran) to pick its next
// one, so a restored thread continues with no resume phase. Agent runner
// threads (body kind agentsdk.RunnerBody) are machines whose only state
// is the action pending after their step's cost
// (agentsdk.RunnerRec.Pending); they re-spawn via agentsdk.Start.
// Construction side effects of the re-spawn pass (its first step, its
// random draws) are erased by an engine Reset and the overlay.
//
// Pending events are pre-bound callbacks whose owners (the kernel, the
// ghOSt class, the agent sets, components) each declare them as a list
// of sim.EventKind. Save and Load look events up in those lists and
// hold no kind names of their own. A flag an event implies is stored
// only as the event: its kind's Adopt sets the flag as Load files it.
package snap

import (
	"fmt"

	"ghost/internal/ghostcore"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// BodyFactory rebuilds a thread body from its serialized descriptor: the
// same Steps machine the body's spawn site builds. rand is the body's
// private random stream (nil if the body recorded none); its state is
// overlaid after spawn, so the factory only wires the object through.
type BodyFactory func(ctx *RestoreCtx, rec kernel.BodyRec, rand *sim.Rand) (kernel.ThreadFunc, error)

// PolicyFactory rebuilds a scheduling policy shell for an agent set; its
// serialized state is overlaid later via PolicySnapshotter.SnapshotLoad.
type PolicyFactory func(ctx *RestoreCtx) (any, error)

// Component is a snapshot-capable machine component (workload source,
// worker pool, recorder). Kind names a factory in the component
// registry; Save and Load carry the component's private state.
type Component interface {
	SnapshotKind() string
	SnapshotSave() ([]byte, error)
	SnapshotLoad(data []byte) error
}

// ComponentEvents is optionally implemented by components that own
// pending engine events. A snapshot stores such an event as kind
// "component" with the component's key, and its kind's name as Sub.
type ComponentEvents interface {
	SnapshotEvents() []sim.EventKind
}

// KeyBinder is optionally implemented by components that stamp their
// snapshot key onto owned resources (e.g. a worker pool marking its
// worker threads' body descriptors).
type KeyBinder interface {
	BindSnapshotKey(key string)
}

// ComponentFactory rebuilds a component shell; serialized state is
// overlaid later via SnapshotLoad.
type ComponentFactory func(ctx *RestoreCtx, key string) (Component, error)

var (
	bodyReg      = map[string]BodyFactory{}
	policyReg    = map[string]PolicyFactory{}
	componentReg = map[string]ComponentFactory{}
)

// RegisterBody registers a body factory under kind. Later registrations
// of the same kind win (tests may override).
func RegisterBody(kind string, f BodyFactory) { bodyReg[kind] = f }

// RegisterPolicy registers a policy factory under kind.
func RegisterPolicy(kind string, f PolicyFactory) { policyReg[kind] = f }

// RegisterComponent registers a component factory under kind.
func RegisterComponent(kind string, f ComponentFactory) { componentReg[kind] = f }

// RestoreCtx carries the partially rebuilt machine through the restore
// phases; factories resolve their dependencies through it.
type RestoreCtx struct {
	// Kernel is the rebuilt kernel (threads appear as the spawn pass
	// progresses).
	Kernel *kernel.Kernel

	components map[string]Component
	enclaves   map[int]*ghostcore.Enclave
}

// Component returns the already-rebuilt component under key, nil if none
// (components are rebuilt in saved order, before any thread spawns).
func (ctx *RestoreCtx) Component(key string) Component { return ctx.components[key] }

// Enclave returns the rebuilt enclave with the given id, nil if none.
func (ctx *RestoreCtx) Enclave(id int) *ghostcore.Enclave { return ctx.enclaves[id] }

func bodyFactory(kind string) (BodyFactory, error) {
	if f, ok := bodyReg[kind]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("snap: no registered body factory for kind %q", kind)
}

func policyFactory(kind string) (PolicyFactory, error) {
	if f, ok := policyReg[kind]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("snap: no registered policy factory for kind %q", kind)
}

func componentFactory(key, kind string, overrides map[string]ComponentFactory) (ComponentFactory, error) {
	if f, ok := overrides[key]; ok {
		return f, nil
	}
	if f, ok := componentReg[kind]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("snap: no factory for component %q of kind %q (register one with snap.RegisterComponent or supply a per-restore override)", key, kind)
}
