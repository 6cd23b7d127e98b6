// Package lib holds one function for each of the unreachable check's
// roots, and the dead code none of them reaches.
package lib

import (
	"fmt"
	"sort"
)

// Used is called from the fixture's main.
func Used() {
	var s Shape = Square{}
	_ = s.Area()
	b := &Box[int]{}
	b.Put(1)
	sort.Sort(byLen(nil))
	fmt.Println(Named{})
}

// FromFacade is called from the facade package.
func FromFacade() int { return 2 }

// Shape is dispatched dynamically: the call graph resolves Area to
// every implementation.
type Shape interface{ Area() int }

// Square implements Shape.
type Square struct{}

// Area is reached through the Shape interface.
func (Square) Area() int { return 4 }

// Box is generic; Put is reached through an instantiated receiver.
type Box[T any] struct{ items []T }

// Put appends v.
func (b *Box[T]) Put(v T) { b.items = append(b.items, v) }

// byLen implements sort.Interface, which the standard library calls.
type byLen []string

func (s byLen) Len() int           { return len(s) }
func (s byLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s byLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Named implements fmt.Stringer and error; fmt calls both.
type Named struct{}

func (Named) String() string { return "named" }
func (Named) Error() string  { return "named" }

// registry and hook are package-level initializers: the functions they
// name, directly or from a function literal, are roots.
var (
	registry = map[string]func() int{"reg": registered}
	hook     = func() int { return fromLiteral() }
)

func registered() int  { return 5 }
func fromLiteral() int { return 6 }

func init() { fromInit() }

func fromInit() {}

// TestOnly is called only from lib_test.go. Tests root nothing, so it
// is reported.
func TestOnly() int { return 7 }

// NestedOnly is named only by the nested module.
func NestedOnly() int { return 8 }

// Kept is a root by directive, and so is what it calls.
//
//ghostlint:root kept as the fixture's stand-in for a paper API call no policy uses
func Kept() int { return keptCallee() }

func keptCallee() int { return 9 }

// Bare carries a root directive without a reason: the directive is a
// ghostlint diagnostic and roots nothing.
//
//ghostlint:root
func Bare() int { return 10 }

// Dead is reached by nothing.
func Dead() int { return deadCallee() }

// deadCallee is reached only from Dead.
func deadCallee() int { return 11 }

// Perimeter is a method nothing calls.
func (Square) Perimeter() int { return 16 }
