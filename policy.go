package ghost

import (
	"ghost/internal/kernel"
	"ghost/internal/policies"
)

// The scheduling policies evaluated in the paper, re-exported. Each is a
// GlobalPolicy (or PerCPUPolicy) implementation a downstream user can
// run as-is or embed in their own policy.
//
// A GlobalPolicy's Schedule result is read by the agent, failed members
// reported through OnTxnFail, before Schedule is called again; the agent
// never keeps it. The policies here return one reused buffer every step,
// and a custom policy may do the same. A policy that wraps another must
// consume the inner result before the next inner Schedule call.
type (
	// FIFOPolicy is the centralized FIFO of Fig 5 / §4.3 (priority
	// bands, optional preemption of lower bands, optional round-robin
	// quantum). Configure the public band surface with
	// NewBandedFIFOPolicy or SnapPolicy rather than poking the internal
	// hook fields directly.
	FIFOPolicy = policies.CentralFIFO
	// ShinjukuPolicy is the preemptive µs-scale policy of §4.2.
	ShinjukuPolicy = policies.Shinjuku
	// SearchPolicy is the NUMA/CCX-aware least-runtime policy of §4.4.
	SearchPolicy = policies.Search
	// CoreSchedPolicy is the secure VM per-core policy of §4.5.
	CoreSchedPolicy = policies.CoreSched
	// PerCPUFIFOPolicy is the per-CPU model of Fig 3.
	PerCPUFIFOPolicy = policies.PerCPUFIFO
	// PolicyThreadState is the per-thread state a Tracker maintains.
	PolicyThreadState = policies.TState
	// PolicyTracker folds kernel messages into per-thread state;
	// custom policies embed one.
	PolicyTracker = policies.Tracker
)

// Classifier hooks for the policies above, in facade vocabulary: both
// take the public *Thread, so external policy configuration never spells
// an internal type. (Thread is an alias for the internal kernel thread,
// so adapting a facade hook onto an internal policy field is a direct
// assignment — the types are identical; the facade constructors below
// are the sanctioned adapters.)
type (
	// BandFunc classifies a thread into a priority band (0 = highest).
	BandFunc func(t *Thread) int
	// ThreadSelector picks out a subset of threads (batch threads, Snap
	// workers, ...).
	ThreadSelector func(t *Thread) bool
	// VMFunc maps a thread to its virtual machine id (CoreSchedPolicy).
	VMFunc func(t *Thread) int
)

// Policy constructors.
var (
	// NewFIFOPolicy builds the centralized FIFO policy (single band).
	NewFIFOPolicy = policies.NewCentralFIFO
	// NewShinjukuPolicy builds the §4.2 policy (30 µs timeslice).
	NewShinjukuPolicy = policies.NewShinjuku
	// NewSearchPolicy builds the §4.4 policy with all optimizations.
	NewSearchPolicy = policies.NewSearch
	// NewPerCPUFIFOPolicy builds the Fig 3 per-CPU policy.
	NewPerCPUFIFOPolicy = policies.NewPerCPUFIFO
	// NewPolicyTracker builds a message tracker for custom policies.
	NewPolicyTracker = policies.NewTracker
)

// NewBandedFIFOPolicy builds a centralized FIFO with bands priority
// bands assigned by band (nil puts everything in band 0). With
// preemptLower, queued higher-band threads transactionally preempt
// running lower-band ones (§4.3 semantics).
func NewBandedFIFOPolicy(bands int, band BandFunc, preemptLower bool) *FIFOPolicy {
	p := policies.NewCentralFIFO()
	p.NumBands = bands
	p.PreemptLower = preemptLower
	if band != nil {
		p.Band = band
	}
	return p
}

// SnapPolicy builds the §4.3 Snap policy: a two-band centralized FIFO
// where threads selected by isWorker get strict priority (and preempt)
// over everything else in the enclave.
func SnapPolicy(isWorker ThreadSelector) *FIFOPolicy {
	return NewBandedFIFOPolicy(2, func(t *Thread) int {
		if isWorker(t) {
			return 0
		}
		return 1
	}, true)
}

// NewShinjukuShenangoPolicy builds the combined §4.2 "Multiple
// Workloads" policy: threads selected by isBatch soak up idle CPUs but
// are displaced the moment latency-critical work appears.
func NewShinjukuShenangoPolicy(isBatch ThreadSelector) *ShinjukuPolicy {
	return policies.NewShinjukuShenango(isBatch)
}

// NewCoreSchedPolicy builds the §4.5 secure VM policy: vmOf maps each
// thread to its VM, and SMT siblings only ever co-run threads of the
// same VM.
func NewCoreSchedPolicy(vmOf VMFunc) *CoreSchedPolicy {
	return policies.NewCoreSched(vmOf)
}

// Statically assert the facade hook types adapt onto the internal policy
// hooks (Thread aliases the internal thread type, so these are identity
// conversions checked at compile time).
var (
	_ func(*kernel.Thread) int  = (BandFunc)(nil)
	_ func(*kernel.Thread) bool = (ThreadSelector)(nil)
)
