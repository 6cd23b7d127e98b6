package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
)

// Reachability is a deterministic breadth-first traversal of the call
// graph from a set of root functions. BFS from position-sorted roots
// over position-sorted edges makes both the reached set and the chosen
// witness path (shortest, first-in-edge-order tiebreak) functions of the
// file contents alone — two loads with different goroutine interleavings
// report byte-identical call chains.
type Reachability struct {
	prev map[*FuncNode]*Edge // first edge that reached the node; nil for roots
	seen map[*FuncNode]bool
	list []*FuncNode // reached nodes in visit order
}

// Reach traverses from roots. enter controls traversal: a node for which
// enter returns false is neither visited nor traversed through (used to
// keep taint out of exempt packages). Roots themselves are subject to
// enter too.
func Reach(roots []*FuncNode, enter func(*FuncNode) bool) *Reachability {
	r := &Reachability{prev: map[*FuncNode]*Edge{}, seen: map[*FuncNode]bool{}}
	var queue []*FuncNode
	for _, n := range roots {
		if r.seen[n] || (enter != nil && !enter(n)) {
			continue
		}
		r.seen[n] = true
		r.prev[n] = nil
		r.list = append(r.list, n)
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			to := e.To
			if r.seen[to] || (enter != nil && !enter(to)) {
				continue
			}
			r.seen[to] = true
			r.prev[to] = e
			r.list = append(r.list, to)
			queue = append(queue, to)
		}
	}
	return r
}

// Has reports whether n was reached.
func (r *Reachability) Has(n *FuncNode) bool { return r.seen[n] }

// Reached returns the reached nodes in deterministic visit order.
func (r *Reachability) Reached() []*FuncNode { return r.list }

// PathTo returns the witness call chain root→…→n as edges; empty when n
// is itself a root, nil when n was not reached.
func (r *Reachability) PathTo(n *FuncNode) []*Edge {
	if !r.seen[n] {
		return nil
	}
	var rev []*Edge
	for e := r.prev[n]; e != nil; e = r.prev[e.From] {
		rev = append(rev, e)
	}
	path := make([]*Edge, len(rev))
	for i, e := range rev {
		path[len(rev)-1-i] = e
	}
	return path
}

// FormatPath renders a witness chain for a diagnostic:
//
//	kernel.(*Kernel).tick -> stats.jitter (kernel.go:41) -> stats.wallNow (stats.go:9)
//
// Each arrow is annotated with the call site (base filename only, so the
// text is stable across checkouts).
func FormatPath(path []*Edge) string {
	if len(path) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(path[0].From.Label)
	for _, e := range path {
		fmt.Fprintf(&b, " -> %s (%s:%d)", e.To.Label, filepath.Base(e.Pos.Filename), e.Pos.Line)
	}
	return b.String()
}
