package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSkylakeShape(t *testing.T) {
	top := SkylakeDefault()
	if got := top.NumCPUs(); got != 112 {
		t.Fatalf("skylake CPUs = %d, want 112", got)
	}
	if got := top.NumCores(); got != 56 {
		t.Fatalf("skylake cores = %d, want 56", got)
	}
	if got := top.NumSockets(); got != 2 {
		t.Fatalf("skylake sockets = %d, want 2", got)
	}
}

func TestHaswellShape(t *testing.T) {
	top := Haswell()
	if got := top.NumCPUs(); got != 72 {
		t.Fatalf("haswell CPUs = %d, want 72", got)
	}
}

func TestXeonE5Shape(t *testing.T) {
	top := XeonE5()
	if got := top.NumCPUs(); got != 48 {
		t.Fatalf("xeon-e5 CPUs = %d, want 48", got)
	}
	if got := len(top.CPUsOfSocket(0)); got != 24 {
		t.Fatalf("xeon-e5 socket 0 CPUs = %d, want 24", got)
	}
}

func TestRomeShape(t *testing.T) {
	top := AMDRome()
	if got := top.NumCPUs(); got != 256 {
		t.Fatalf("rome CPUs = %d, want 256", got)
	}
	if got := top.NumCCXs(); got != 32 {
		t.Fatalf("rome CCXs = %d, want 32", got)
	}
	// Each CCX: 4 physical cores * 2 SMT = 8 logical CPUs sharing L3.
	ccx0 := 0
	for i := 0; i < top.NumCPUs(); i++ {
		if top.CPU(CPUID(i)).CCX == 0 {
			ccx0++
		}
	}
	if ccx0 != 8 {
		t.Fatalf("rome CCX size = %d, want 8", ccx0)
	}
}

func TestSiblingsSymmetric(t *testing.T) {
	top := SkylakeDefault()
	for i := 0; i < top.NumCPUs(); i++ {
		id := CPUID(i)
		sib := top.CPU(id).Sibling()
		if sib == NoCPU {
			t.Fatalf("cpu %d has no sibling on SMT2 machine", i)
		}
		if back := top.CPU(sib).Sibling(); back != id {
			t.Fatalf("sibling of sibling of %d = %d", id, back)
		}
		if top.Dist(id, sib) != DistSMT {
			t.Fatalf("dist(%d,%d) = %v, want smt", id, sib, top.Dist(id, sib))
		}
	}
}

func TestLinuxSiblingNumbering(t *testing.T) {
	top := SkylakeDefault()
	// Linux convention: CPU i and CPU i+ncores are siblings.
	if sib := top.CPU(0).Sibling(); sib != 56 {
		t.Fatalf("sibling of CPU 0 = %d, want 56", sib)
	}
	if sib := top.CPU(55).Sibling(); sib != 111 {
		t.Fatalf("sibling of CPU 55 = %d, want 111", sib)
	}
}

func TestDistProperties(t *testing.T) {
	top := AMDRome()
	n := top.NumCPUs()
	f := func(a, b uint16) bool {
		x, y := CPUID(int(a)%n), CPUID(int(b)%n)
		d := top.Dist(x, y)
		if d != top.Dist(y, x) {
			return false // symmetry
		}
		if (x == y) != (d == DistSelf) {
			return false // identity
		}
		return d >= DistSelf && d <= DistRemote
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDistLevels(t *testing.T) {
	top := AMDRome()
	// CPUs 0 and 1: adjacent cores in the same CCX.
	if d := top.Dist(0, 1); d != DistCCX {
		t.Fatalf("dist(0,1) = %v, want ccx", d)
	}
	// CPUs 0 and 4: different CCX, same socket.
	if d := top.Dist(0, 4); d != DistSocket {
		t.Fatalf("dist(0,4) = %v, want socket", d)
	}
	// CPU 0 and a socket-1 CPU.
	s1 := top.CPUsOfSocket(1)[0]
	if d := top.Dist(0, s1); d != DistRemote {
		t.Fatalf("dist(0,%d) = %v, want remote", s1, d)
	}
	// SMT sibling.
	if d := top.Dist(0, top.CPU(0).Sibling()); d != DistSMT {
		t.Fatalf("sibling dist = %v, want smt", d)
	}
}

func TestSocketPartition(t *testing.T) {
	top := SkylakeDefault()
	seen := make(map[CPUID]bool)
	for s := 0; s < top.NumSockets(); s++ {
		for _, id := range top.CPUsOfSocket(s) {
			if seen[id] {
				t.Fatalf("cpu %d in two sockets", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != top.NumCPUs() {
		t.Fatalf("socket partition covers %d of %d CPUs", len(seen), top.NumCPUs())
	}
}

func TestCCXPartition(t *testing.T) {
	top := AMDRome()
	size := make([]int, top.NumCCXs())
	for i := 0; i < top.NumCPUs(); i++ {
		c := top.CPU(CPUID(i))
		if c.CCX < 0 || c.CCX >= len(size) {
			t.Fatalf("cpu %d in CCX %d of %d", i, c.CCX, len(size))
		}
		size[c.CCX]++
	}
	for c, n := range size {
		if n != top.NumCPUs()/len(size) {
			t.Fatalf("CCX %d holds %d of %d CPUs", c, n, top.NumCPUs())
		}
	}
}

func TestCostModelTable3Anchors(t *testing.T) {
	cm := DefaultCostModel()
	// Table 3 line 4: single remote txn agent overhead = 668 ns.
	if got := cm.RemoteCommitAgentCost(1); got != 668 {
		t.Fatalf("agent cost(1) = %d, want 668", got)
	}
	// Table 3 line 7: 10-txn group agent overhead = 3964 ns.
	if got := cm.RemoteCommitAgentCost(10); got != 3962 {
		t.Fatalf("agent cost(10) = %d, want 3962 (fit of 3964)", got)
	}
	// Table 3 line 5: single remote txn target overhead = 1064 ns.
	if got := cm.RemoteCommitTargetCost(1, false); got != 1064 {
		t.Fatalf("target cost(1) = %d, want 1064", got)
	}
	// Table 3 line 8: group target overhead = 1821 ns (fit 1820).
	if got := cm.RemoteCommitTargetCost(10, false); got != 1820 {
		t.Fatalf("target cost(10) = %d, want 1820", got)
	}
	if cm.RemoteCommitTargetCost(1, true) <= cm.RemoteCommitTargetCost(1, false) {
		t.Fatal("cross-socket IPI not more expensive")
	}
}

func TestMigrationPenaltyMonotone(t *testing.T) {
	cm := DefaultCostModel()
	prev := cm.MigrationPenalty(DistSelf)
	for _, d := range []Distance{DistSMT, DistCCX, DistSocket, DistRemote} {
		p := cm.MigrationPenalty(d)
		if p < prev {
			t.Fatalf("penalty not monotone at %v: %d < %d", d, p, prev)
		}
		prev = p
	}
}

func TestZeroGroupCosts(t *testing.T) {
	cm := DefaultCostModel()
	if cm.RemoteCommitAgentCost(0) != 0 || cm.RemoteCommitTargetCost(0, true) != 0 {
		t.Fatal("zero-size group should cost nothing")
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Sockets: 0, CCXsPerSocket: 1, CoresPerCCX: 1, SMTWidth: 1},
		{Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 1, SMTWidth: 3},
		{Sockets: 1, CCXsPerSocket: 0, CoresPerCCX: 1, SMTWidth: 1},
		{Sockets: 2, CCXsPerSocket: 16, CoresPerCCX: 5, SMTWidth: 2},                    // 320 CPUs
		{Sockets: math.MaxInt, CCXsPerSocket: math.MaxInt, CoresPerCCX: 1, SMTWidth: 1}, // product overflows
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			NewTopology(cfg)
		}()
	}
}
