package workload

import (
	"fmt"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// VMSet models the §4.5 secure-VM workload: VMs whose vCPUs are native
// threads running a CPU-bound SPEC-like benchmark (bwaves). The metric
// is total completion time of a fixed amount of work; core-scheduling
// policies must never co-schedule vCPUs of different VMs on SMT siblings
// of one physical core.
type VMSet struct {
	VMs []*VM

	// Finished counts completed vCPUs; Done is when the last finished;
	// CompletionSum accumulates per-vCPU completion times for the
	// SPEC-rate-style mean.
	Finished      int
	Done          sim.Time
	CompletionSum sim.Time
}

// MeanCompletion returns the average vCPU completion time.
func (s *VMSet) MeanCompletion() sim.Time {
	if s.Finished == 0 {
		return 0
	}
	return s.CompletionSum / sim.Time(s.Finished)
}

// VM is one virtual machine: its vCPU threads. Each vCPU's VMTag holds
// the VM's index in VMSet.VMs.
type VM struct {
	VCPUs []*kernel.Thread
}

// VMTag is attached to each vCPU thread's Tag so schedulers can read VM
// membership (the paper's core-scheduling cookie).
type VMTag struct {
	VM int
}

// NewVMSet spawns numVMs VMs with vcpusPerVM vCPUs each, every vCPU
// executing `work` of CPU time in `chunk` increments. spawn creates the
// thread in the scheduler under test.
func NewVMSet(numVMs, vcpusPerVM int, work, chunk sim.Duration,
	spawn func(name string, tag any, body kernel.ThreadFunc) *kernel.Thread) *VMSet {
	set := &VMSet{}
	total := numVMs * vcpusPerVM
	for v := 0; v < numVMs; v++ {
		vm := &VM{}
		for c := 0; c < vcpusPerVM; c++ {
			name := fmt.Sprintf("vm%d-vcpu%d", v, c)
			th := spawn(name, &VMTag{VM: v}, FiniteSpinner(work, chunk, func(at sim.Time) {
				set.Finished++
				set.CompletionSum += at
				if set.Finished == total {
					set.Done = at
				}
			}))
			vm.VCPUs = append(vm.VCPUs, th)
		}
		set.VMs = append(set.VMs, vm)
	}
	return set
}

// VMOf reads the VM id from a thread's tag, -1 if absent.
func VMOf(t *kernel.Thread) int {
	if tag, ok := t.Tag.(*VMTag); ok {
		return tag.VM
	}
	return -1
}

// IsolationChecker counts instants where two sibling hyperthreads run
// vCPUs of different VMs, sampled every period; any nonzero total is a
// security violation of the §4.5 policy.
type IsolationChecker struct {
	k          *kernel.Kernel
	Violations uint64
}

// NewIsolationChecker samples sibling pairs every period.
func NewIsolationChecker(k *kernel.Kernel, period sim.Duration) *IsolationChecker {
	ic := &IsolationChecker{k: k}
	sim.NewTicker(k.Engine(), period, func(sim.Time) { ic.check() })
	return ic
}

// check visits each SMT core once, from its lower-numbered CPU.
func (ic *IsolationChecker) check() {
	topo := ic.k.Topology()
	for i := 0; i < topo.NumCPUs(); i++ {
		cpu := topo.CPU(hw.CPUID(i))
		sib := cpu.Sibling()
		if cpu.ID > sib { // no sibling (NoCPU), or seen from the sibling
			continue
		}
		a := ic.k.CPU(cpu.ID).Curr()
		b := ic.k.CPU(sib).Curr()
		if a == nil || b == nil {
			continue
		}
		if va, vb := VMOf(a), VMOf(b); va >= 0 && vb >= 0 && va != vb {
			ic.Violations++
		}
	}
}
