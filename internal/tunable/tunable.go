// Package tunable is the declaration vocabulary for policy auto-tuning:
// a policy (or scheduling class) exposes its numeric knobs — quanta,
// batch sizes, preemption thresholds — as a Set of named Tunables, each
// with a search range and an Apply hook that writes the value back into
// the live policy. The tuner (internal/tune) samples parameter vectors
// from the declared ranges and applies them without knowing anything
// about the policy's concrete type; the facade re-exports these types as
// ghost.Tunable / ghost.TunableSet / ghost.TunablePolicy.
//
// The package is a leaf: internal/kernel and internal/policies both
// import it to declare their knobs, so it must import neither.
package tunable

import (
	"fmt"
	"math"
)

// Tunable declares one numeric knob. Values are plain float64s in the
// unit named by the knob (convention: durations are declared in
// microseconds and suffixed _us); Apply converts to the policy's own
// representation.
type Tunable struct {
	// Name identifies the knob within its Set (e.g. "slice_us").
	Name string
	// Doc is a one-line description for reports and -list output.
	Doc string
	// Min and Max bound the search range (inclusive). Set clamps
	// out-of-range values instead of failing: a tuner may propose
	// boundary values freely.
	Min, Max float64
	// Default is the policy's untuned value, the baseline the tuner
	// compares against.
	Default float64
	// Log marks a knob whose range is searched geometrically (slice
	// lengths, periods); linear interpolation otherwise.
	Log bool
	// Integer rounds applied values to the nearest integer (counts,
	// band indices, booleans-as-0/1).
	Integer bool
	// Apply writes a clamped value into the owning policy.
	Apply func(v float64)
}

// Set is an ordered collection of one policy's tunables. Order is
// declaration order and is part of the contract: the tuner draws
// parameters in Set order, so reordering knobs changes seeded sweeps.
type Set struct {
	items []Tunable
	index map[string]int
}

// NewSet returns an empty tunable set.
func NewSet() *Set { return &Set{index: map[string]int{}} }

// Add declares one knob; it panics on duplicate names, inverted ranges,
// or a nil Apply — these are programming errors in the policy, not
// runtime conditions.
func (s *Set) Add(t Tunable) *Set {
	if t.Name == "" {
		panic("tunable: empty name")
	}
	if _, dup := s.index[t.Name]; dup {
		panic("tunable: duplicate knob " + t.Name)
	}
	if !(t.Min <= t.Max) {
		panic(fmt.Sprintf("tunable: %s has inverted range [%g, %g]", t.Name, t.Min, t.Max))
	}
	if t.Log && t.Min <= 0 {
		panic(fmt.Sprintf("tunable: %s is Log with non-positive Min %g", t.Name, t.Min))
	}
	if t.Apply == nil {
		panic("tunable: " + t.Name + " has nil Apply")
	}
	s.index[t.Name] = len(s.items)
	s.items = append(s.items, t)
	return s
}

// Len returns the number of declared knobs.
func (s *Set) Len() int { return len(s.items) }

// List returns the knobs in declaration order.
func (s *Set) List() []Tunable { return append([]Tunable(nil), s.items...) }

// Names returns the knob names in declaration order.
func (s *Set) Names() []string {
	out := make([]string, len(s.items))
	for i, t := range s.items {
		out[i] = t.Name
	}
	return out
}

// Get returns the declaration for name.
func (s *Set) Get(name string) (Tunable, bool) {
	i, ok := s.index[name]
	if !ok {
		return Tunable{}, false
	}
	return s.items[i], true
}

// Clamp maps v into the knob's legal values: range-clamped and, for
// Integer knobs, rounded.
func (t Tunable) Clamp(v float64) float64 {
	if v < t.Min {
		v = t.Min
	}
	if v > t.Max {
		v = t.Max
	}
	if t.Integer {
		v = math.Round(v)
	}
	return v
}

// Sample maps u in [0, 1) onto the knob's range: geometrically for Log
// knobs, linearly otherwise. It is the seeded-search primitive — the
// tuner draws u from a sim.Rand so samples are reproducible.
func (t Tunable) Sample(u float64) float64 {
	var v float64
	if t.Log {
		v = math.Exp(math.Log(t.Min) + u*(math.Log(t.Max)-math.Log(t.Min)))
	} else {
		v = t.Min + u*(t.Max-t.Min)
	}
	return t.Clamp(v)
}

// Set clamps v to name's range and applies it to the policy. Unknown
// names error (a tuner bug or a stale saved configuration).
func (s *Set) Set(name string, v float64) error {
	i, ok := s.index[name]
	if !ok {
		return fmt.Errorf("tunable: unknown knob %q", name)
	}
	t := s.items[i]
	t.Apply(t.Clamp(v))
	return nil
}

// Policy is implemented by policies and scheduling classes that declare
// tunables. Tunables must return the same Set instance across calls so
// applied values stick.
type Policy interface {
	Tunables() *Set
}
