package check

import (
	"fmt"
	"slices"
	"testing"

	"ghost/internal/ghostcore"
	"ghost/internal/kernel"
)

// indexAudit wraps the indexed status-word oracle and, after every
// switch-in, compares its index with one rebuilt from every thread of
// every live enclave: the same claims, CPUs and stopped flags, the same
// per-(enclave, CPU) counts, and counters that agree with them. It
// records the first mismatch.
type indexAudit struct {
	*statusWordOracle
	mismatch string
	claims   int // claims seen across the audited switch-ins
	dropped  int // claims a Destroyed event dropped
}

func (a *indexAudit) Destroyed(e *ghostcore.Enclave, cause error, threads []*kernel.Thread) {
	before := a.held()
	a.statusWordOracle.Destroyed(e, cause, threads)
	a.dropped += before - a.held()
}

// held counts the claims in the index.
func (a *indexAudit) held() int {
	n := 0
	for _, w := range a.word {
		if w.enc != 0 {
			n++
		}
	}
	return n
}

func (a *indexAudit) SwitchIn(cpu *kernel.CPU, t *kernel.Thread) {
	a.statusWordOracle.SwitchIn(cpu, t)
	if a.mismatch != "" {
		return
	}
	o := a.statusWordOracle
	want := make([]swClaim, len(o.word))
	perCPU := make([]int, len(o.perCPU))
	stopped, doubles := 0, 0
	for _, e := range o.c.Ghost().Enclaves() {
		for _, th := range e.Threads() {
			sw := e.StatusWord(th)
			if sw == nil || !sw.OnCPU {
				continue
			}
			w := swClaim{enc: int32(e.ID()) + 1, cpu: sw.CPU, stopped: th.State() != kernel.StateRunning}
			*at(&want, int(th.TID())) = w
			if w.stopped {
				stopped++
			}
			if c := int(sw.CPU); c < 0 || c >= o.ncpu {
				doubles++
			} else {
				n := at(&perCPU, e.ID()*o.ncpu+c)
				if *n++; *n == 2 {
					doubles++
				}
			}
		}
	}
	for len(perCPU) < len(o.perCPU) {
		perCPU = append(perCPU, 0)
	}
	now := o.c.k.Now()
	switch {
	case len(want) != len(o.word):
		a.mismatch = fmt.Sprintf("t=%v: a claim by T%d is missing from the index", now, len(want)-1)
	case !slices.Equal(want, o.word):
		a.mismatch = fmt.Sprintf("t=%v: index %v, rebuilt %v", now, o.word, want)
	case !slices.Equal(perCPU, o.perCPU):
		a.mismatch = fmt.Sprintf("t=%v: per-CPU counts %v, rebuilt %v", now, o.perCPU, perCPU)
	case stopped != o.stopped || doubles != o.doubles:
		a.mismatch = fmt.Sprintf("t=%v: stopped %d doubles %d, rebuilt %d and %d", now, o.stopped, o.doubles, stopped, doubles)
	}
	a.claims += a.held()
}

// TestStatusWordIndexMatchesMachine: at every switch-in of generated
// runs, with and without each seeded bug, the status-word index holds
// exactly the claims a rescan of the machine finds. Crash and watchdog
// faults destroy enclaves that hold claims, so a Destroyed the index
// ignored would leave claims a rescan does not find.
func TestStatusWordIndexMatchesMachine(t *testing.T) {
	seeds := uint64(120)
	if testing.Short() {
		seeds = 20
	}
	claims, dropped := 0, 0
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, mut := range append([]string{""}, MutationNames()...) {
			s := Generate(seed)
			if !s.ghostPolicy() {
				break
			}
			s.Mutation = mut
			var audit *indexAudit
			prev := newStatusWord
			newStatusWord = func() Oracle {
				audit = &indexAudit{statusWordOracle: newStatusWordOracle()}
				return audit
			}
			s.Run()
			newStatusWord = prev
			if audit.mismatch != "" {
				t.Fatalf("%s: %s", s.Repro(), audit.mismatch)
			}
			claims += audit.claims
			dropped += audit.dropped
		}
	}
	if claims == 0 || dropped == 0 {
		t.Fatalf("the audited switch-ins saw %d claims and destroys dropped %d; the audit is vacuous", claims, dropped)
	}
	t.Logf("audited %d claims at switch-ins; destroys dropped %d", claims, dropped)
}
