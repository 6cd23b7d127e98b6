package ghost

import (
	"io"

	"ghost/internal/agentsdk"
	"ghost/internal/check"
	"ghost/internal/faults"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/snap"
	"ghost/internal/trace"
)

// Machine is a simulated host: engine, kernel, the standard scheduling
// class stack (agents > MicroQuanta > CFS > ghOSt), and helpers to build
// enclaves, agents, and threads. It is the top-level object of the
// public API.
type Machine struct {
	eng *sim.Engine
	k   *kernel.Kernel
	tr  *trace.Tracer
	inv *check.Checker

	// Snapshot bookkeeping: live agent generations and registered
	// components, in creation order.
	sets  []*agentsdk.AgentSet
	comps []snap.ComponentEntry

	// CFS is the default scheduler; threads spawned with the zero
	// ThreadOpts.Class run under it.
	CFS *CFSClass
	// MicroQuanta is the soft real-time class of §4.3.
	MicroQuanta *MicroQuantaClass
	// Agents is the top-priority class hosting ghOSt agents.
	Agents *AgentRunnerClass
	// Ghost is the ghOSt scheduling class.
	Ghost *GhostClass
}

// machineConfig collects the effects of MachineOptions.
type machineConfig struct {
	cost         hw.CostModel
	tracer       *trace.Tracer
	plan         *faults.Plan
	oracles      []check.Oracle
	restoreComps map[string]func(*Machine) (SnapshotComponent, error)
}

// MachineOption customizes NewMachine. Options are applied in order;
// later options win.
type MachineOption func(*machineConfig)

// WithCostModel overrides the default (Table 3) cost model.
func WithCostModel(cm CostModel) MachineOption {
	return func(c *machineConfig) { c.cost = cm }
}

// WithTrace attaches tr in place of the default metrics-only tracer. It
// observes the machine as the invariant oracles do, and a full tracer
// (NewTracer) records every context switch, message, transaction, agent
// span and fault, for export with Machine.TraceTo. Without this option
// the machine still keeps aggregate Metrics, but records no events.
func WithTrace(tr *Tracer) MachineOption {
	return func(c *machineConfig) { c.tracer = tr }
}

// WithoutMetrics attaches no tracer at all, so no kernel hook, ghOSt
// observer list or fault observer list holds one, and Metrics reports
// only the engine counts. This is the true zero-instrumentation baseline
// used by the overhead benchmarks.
func WithoutMetrics() MachineOption {
	return func(c *machineConfig) { c.tracer = nil }
}

// WithFaults installs a deterministic fault-injection plan (§3.4): a
// seeded schedule of agent crashes, stalls, message drops/delays, IPI
// loss, transaction failures, and forced upgrades. Every injected fault
// is counted in Metrics.Faults and, under WithTrace, recorded on the
// "faults" track.
func WithFaults(p *FaultPlan) MachineOption {
	return func(c *machineConfig) { c.plan = p }
}

// WithInvariants attaches the internal/check invariant checker to the
// machine: the given oracles observe every protocol event online and
// record violations, retrievable via Machine.Invariants. With no
// arguments the full DefaultInvariants set is attached.
func WithInvariants(oracles ...InvariantOracle) MachineOption {
	return func(c *machineConfig) {
		if len(oracles) == 0 {
			oracles = check.Default()
		}
		c.oracles = oracles
	}
}

// NewMachine builds a machine with the full class stack on the given
// topology. By default it attaches a metrics-only tracer, which collects
// aggregate scheduling metrics (Machine.Metrics); add WithTrace to also
// record a Perfetto-loadable event trace, or WithoutMetrics for none.
func NewMachine(topo *Topology, opts ...MachineOption) *Machine {
	cfg := machineConfig{
		cost:   hw.DefaultCostModel(),
		tracer: trace.NewMetricsOnly(),
	}
	for _, o := range opts {
		o(&cfg)
	}
	m := &Machine{eng: sim.NewEngine(), tr: cfg.tracer}
	k := kernel.New(m.eng, topo, cfg.cost)
	m.k = k
	if m.tr != nil {
		// Before the classes, so its hooks run before theirs.
		trace.Attach(m.tr, k)
	}
	m.Agents = kernel.NewAgentClass(k)
	m.MicroQuanta = kernel.NewMicroQuanta(k)
	m.CFS = kernel.NewCFS(k)
	m.Ghost = ghostcore.NewClass(k, m.CFS)
	if m.tr != nil {
		m.Ghost.AddObserver(m.tr)
	}
	if len(cfg.oracles) > 0 {
		m.inv = check.Attach(k, m.Ghost, cfg.oracles...)
	}
	if cfg.plan != nil {
		in := faults.NewInjector(m.eng, cfg.plan)
		if m.tr != nil {
			in.AddObserver(m.tr)
		}
		k.SetFaults(in)
	}
	return m
}

// Kernel exposes the underlying simulated kernel.
func (m *Machine) Kernel() *Kernel { return m.k }

// Topology returns the machine topology.
func (m *Machine) Topology() *Topology { return m.k.Topology() }

// Metrics returns a snapshot of the aggregate scheduling metrics
// collected so far: context switches, wakeups, IPIs, and per-enclave
// message/transaction/agent latency histograms. Returns an empty
// snapshot when metrics are disabled.
func (m *Machine) Metrics() *Metrics {
	ms := m.tr.Metrics()
	// The engine counts its own dispatches; the tracer does not.
	ms.EngineEvents = m.eng.Executed
	ms.EngineMaxQueue = m.eng.MaxQueue
	return ms
}

// TraceTo writes the recorded event trace as Chrome trace_event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. The
// machine must have been built with WithTrace for events to be present;
// otherwise the output is a valid but empty trace.
func (m *Machine) TraceTo(w io.Writer) error { return m.tr.WriteJSON(w) }

// Now returns the current simulated time.
func (m *Machine) Now() Time { return m.eng.Now() }

// Run advances simulated time by d.
func (m *Machine) Run(d Duration) { m.RunUntil(m.Now() + d) }

// RunUntil advances simulated time to the absolute instant t.
func (m *Machine) RunUntil(t Time) { m.eng.RunUntil(t) }

// Shutdown finalizes the invariant checker (if attached) and unwinds
// all simulated threads; call when done (defer it).
func (m *Machine) Shutdown() {
	if m.inv != nil {
		m.inv.Finish(m.eng.Now())
	}
	m.k.Shutdown()
}

// Invariants returns the invariant checker attached with WithInvariants,
// nil otherwise. End-of-run oracles only report after Shutdown (or an
// explicit Checker.Finish).
func (m *Machine) Invariants() *InvariantChecker { return m.inv }

// AllCPUs returns a mask of every CPU.
func (m *Machine) AllCPUs() CPUMask { return kernel.MaskAll(m.k.NumCPUs()) }

// EnclaveOption customizes NewEnclave.
type EnclaveOption func(*Enclave)

// WithWatchdog arms the enclave watchdog (§3.5): if no agent consumes
// messages for d, the enclave is destroyed and its threads fall back to
// CFS.
func WithWatchdog(d Duration) EnclaveOption {
	return func(e *Enclave) { e.EnableWatchdog(d) }
}

// WithTicks enables TIMER_TICK message delivery to agents (§3.1).
func WithTicks() EnclaveOption {
	return func(e *Enclave) { e.DeliverTicks = true }
}

// WithBPF installs the BPF idle fastpath program (§3.2).
func WithBPF(p BPFProgram) EnclaveOption {
	return func(e *Enclave) { e.SetBPF(p) }
}

// NewEnclave partitions the given CPUs into a ghOSt enclave (§3).
func (m *Machine) NewEnclave(cpus CPUMask, opts ...EnclaveOption) *Enclave {
	e := ghostcore.NewEnclave(m.Ghost, cpus)
	for _, o := range opts {
		o(e)
	}
	return e
}

// AgentOption customizes Machine.StartAgents; see Global, PerCPU and
// WithUpgradePolicy.
type AgentOption = agentsdk.Option

// Agent-start options, re-exported from the agent SDK.
var (
	// Global asserts the centralized model (one global agent, §3.3):
	// StartAgents panics unless the policy is a GlobalPolicy.
	Global = agentsdk.Global
	// PerCPU asserts the per-CPU model (one agent per CPU, §3.2):
	// StartAgents panics unless the policy is a PerCPUPolicy.
	PerCPU = agentsdk.PerCPU
	// WithUpgradePolicy supplies the successor-policy factory used when
	// a forced "upgrade" fault fires (§3.4).
	WithUpgradePolicy = agentsdk.WithUpgradePolicy
)

// StartAgents runs a scheduling policy on the enclave. The model is
// inferred from the policy's interface (GlobalPolicy → centralized,
// PerCPUPolicy → per-CPU); Global()/PerCPU() assert it.
func (m *Machine) StartAgents(enc *Enclave, policy any, opts ...AgentOption) *AgentSet {
	set := agentsdk.Start(m.k, enc, m.Agents, policy, opts...)
	m.sets = append(m.sets, set)
	return set
}

// ThreadClass selects the scheduling class a thread is spawned under.
// The zero value is CFS.
type ThreadClass struct {
	kind int // 0 = CFS, 1 = MicroQuanta, 2 = ghOSt
	enc  *Enclave
}

// Thread class selectors for ThreadOpts.Class.
var (
	// CFS runs the thread under the default scheduler (the zero value,
	// so it may be omitted).
	CFS ThreadClass
	// MicroQuanta runs the thread under the soft real-time class (§4.3).
	MicroQuanta = ThreadClass{kind: 1}
)

// Ghost runs the thread under the enclave's policy; the agent learns of
// it via THREAD_CREATED.
func Ghost(enc *Enclave) ThreadClass { return ThreadClass{kind: 2, enc: enc} }

// ThreadOpts configures thread creation.
type ThreadOpts struct {
	Name     string
	Affinity CPUMask     // zero = all CPUs
	Nice     int         // CFS weight adjustment
	Tag      any         // opaque label policies can read
	Class    ThreadClass // scheduling class; zero = CFS
}

// Spawn creates a simulated thread under the class selected by
// o.Class: CFS (default), MicroQuanta, or Ghost(enc).
func (m *Machine) Spawn(o ThreadOpts, body ThreadFunc) *Thread {
	so := kernel.SpawnOpts{
		Name: o.Name, Affinity: o.Affinity, Nice: o.Nice, Tag: o.Tag,
	}
	switch o.Class.kind {
	case 1:
		if m.MicroQuanta == nil {
			panic("ghost: machine built without MicroQuanta")
		}
		so.Class = m.MicroQuanta
		return m.k.Spawn(so, body)
	case 2:
		if o.Class.enc == nil {
			panic("ghost: Ghost thread class with nil enclave")
		}
		return o.Class.enc.SpawnThread(so, body)
	default:
		so.Class = m.CFS
		return m.k.Spawn(so, body)
	}
}

// Wake makes a blocked thread runnable.
func (m *Machine) Wake(t *Thread) { m.k.Wake(t) }

// After invokes fn once, d from now.
func (m *Machine) After(d Duration, fn func()) { m.eng.After(d, fn) }

// IdleCPUs lists currently idle CPUs.
func (m *Machine) IdleCPUs() []CPUID { return m.k.IdleCPUs() }
