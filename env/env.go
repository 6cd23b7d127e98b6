// Package env is a versioned step/observe/act interface to the ghOSt
// simulator: it wraps a Machine, an Enclave, and an open-loop serving
// workload behind a reinforcement-learning-style environment so external
// controllers (hand-written schedulers, tuners, learned policies) can
// drive enclave scheduling without touching the agent SDK directly.
//
//	e, err := env.Open(env.Spec{Version: env.V1, Seed: 1})
//	defer e.Close()
//	for {
//	    obs, reward, done := e.Step(actions)
//	    if done {
//	        break
//	    }
//	    actions = decide(obs, reward)
//	}
//
// Each Step applies the given actions, advances simulated time by one
// decision quantum, and returns an Observation of the enclave plus a
// reward derived from the SLO. Everything is deterministic: the same
// Spec and action sequence produce a byte-identical observation and
// reward stream, and concurrently running environments do not interact.
//
// The package deliberately imports only the public ghost facade — it is
// both the supported external control surface and an existence proof
// that the facade is complete enough to build one.
package env

import (
	"errors"
	"fmt"

	"ghost"
)

// V1 is the current environment API version. Spec.Version must be set
// to it explicitly; new observation fields or action kinds that change
// stream bytes will come with a new version constant.
const V1 = 1

// ErrVersion is returned (wrapped) by Open when Spec.Version does not
// name a supported environment version.
var ErrVersion = errors.New("unsupported environment version")

// Spec declares an environment. The zero value of every field except
// Version is a usable default; Version must be env.V1.
type Spec struct {
	// Version pins the environment semantics; must be env.V1.
	Version int
	// Topology picks the simulated machine: "skylake" (default),
	// "haswell", "xeon-e5", or "amd-rome".
	Topology string
	// CPUs is the number of worker CPUs in the enclave (default 8). One
	// additional CPU hosts the global agent.
	CPUs int
	// Seed drives every stochastic choice (arrivals, service times).
	Seed uint64
	// Quantum is the simulated time advanced per Step (default 50 µs).
	Quantum ghost.Duration
	// Horizon is the total simulated run length (default 100 ms); the
	// environment is done once it is reached.
	Horizon ghost.Duration
	// Workload configures the open-loop serving load.
	Workload WorkloadSpec
	// SLO is the latency objective rewards are scored against
	// (default 1 ms).
	SLO ghost.Duration
	// AutoDispatch enables the built-in band-FIFO baseline: idle CPUs
	// are filled oldest-first from the run queue each agent step, so a
	// controller only has to intervene where it wants to deviate. When
	// false, nothing runs except by explicit Dispatch actions.
	AutoDispatch bool
	// Invariants attaches the protocol invariant checker
	// (ghost.WithInvariants); retrieve results with Env.Violations.
	Invariants bool
}

// WorkloadSpec configures the open-loop workload: a Poisson arrival
// process feeding a pool of worker threads in the enclave.
type WorkloadSpec struct {
	// Rate is arrivals per second (default 100 000).
	Rate float64
	// Workers is the worker-thread count (default 4× CPUs).
	Workers int
	// Service is the request service-time distribution.
	Service ServiceSpec
}

// ServiceSpec picks a service-time distribution by name.
type ServiceSpec struct {
	// Dist is "fixed" (default), "exp", "bimodal", or "rocksdb".
	Dist string
	// Mean is the service time for "fixed" and "exp" (default 10 µs).
	Mean ghost.Duration
	// Short, Long, PLong parameterize "bimodal" (defaults 10 µs, 1 ms,
	// 0.01).
	Short ghost.Duration
	Long  ghost.Duration
	PLong float64
}

func (s ServiceSpec) dist() (ghost.ServiceDist, error) {
	mean := s.Mean
	if mean == 0 {
		mean = 10 * ghost.Microsecond
	}
	switch s.Dist {
	case "", "fixed":
		return ghost.FixedService(mean), nil
	case "exp":
		return ghost.ExponentialService(mean), nil
	case "bimodal":
		b := ghost.BimodalService{Short: s.Short, Long: s.Long, PLong: s.PLong}
		if b.Short == 0 {
			b.Short = 10 * ghost.Microsecond
		}
		if b.Long == 0 {
			b.Long = ghost.Millisecond
		}
		if b.PLong == 0 {
			b.PLong = 0.01
		}
		return b, nil
	case "rocksdb":
		return ghost.RocksDBService(), nil
	default:
		return nil, fmt.Errorf("env: unknown service distribution %q", s.Dist)
	}
}

func topology(name string) (*ghost.Topology, error) {
	switch name {
	case "", "skylake":
		return ghost.Skylake(), nil
	case "haswell":
		return ghost.Haswell(), nil
	case "xeon-e5":
		return ghost.XeonE5(), nil
	case "amd-rome":
		return ghost.AMDRome(), nil
	default:
		return nil, fmt.Errorf("env: unknown topology %q", name)
	}
}

// Env is an open environment. It is not safe for concurrent use;
// distinct environments are fully independent and may run in parallel.
type Env struct {
	spec    Spec
	m       *ghost.Machine
	enc     *ghost.Enclave
	agents  *ghost.AgentSet
	cp      *controlPolicy
	pool    *ghost.WorkerPool
	src     *ghost.PoissonSource
	quantum ghost.Duration
	end     ghost.Time // absolute horizon

	stepN       int
	arrivals    uint64
	completions uint64
	winArrivals uint64
	winGood     uint64
	winBad      uint64
	winHist     ghost.Histogram
	totalHist   ghost.Histogram
	done        bool
	closed      bool
}

// Open validates spec, builds the machine, enclave, agent, and
// workload, and returns the environment positioned at time zero.
func Open(spec Spec) (*Env, error) {
	if spec.Version != V1 {
		return nil, fmt.Errorf("env: Spec.Version %d: %w (want env.V1)", spec.Version, ErrVersion)
	}
	topo, err := topology(spec.Topology)
	if err != nil {
		return nil, err
	}
	if spec.CPUs == 0 {
		spec.CPUs = 8
	}
	if spec.CPUs < 1 || spec.CPUs+1 > topo.NumCPUs() {
		return nil, fmt.Errorf("env: CPUs %d out of range for topology %q (1..%d)",
			spec.CPUs, spec.Topology, topo.NumCPUs()-1)
	}
	if spec.Quantum <= 0 {
		spec.Quantum = 50 * ghost.Microsecond
	}
	if spec.Horizon <= 0 {
		spec.Horizon = 100 * ghost.Millisecond
	}
	if spec.SLO <= 0 {
		spec.SLO = ghost.Millisecond
	}
	if spec.Workload.Rate <= 0 {
		spec.Workload.Rate = 100_000
	}
	if spec.Workload.Workers <= 0 {
		spec.Workload.Workers = 4 * spec.CPUs
	}
	service, err := spec.Workload.Service.dist()
	if err != nil {
		return nil, err
	}

	var mopts []ghost.MachineOption
	if spec.Invariants {
		mopts = append(mopts, ghost.WithInvariants())
	}
	e := &Env{spec: spec, quantum: spec.Quantum}
	e.m = ghost.NewMachine(topo, mopts...)
	e.end = ghost.Time(spec.Horizon)

	// CPU 0 hosts the spinning global agent; CPUs 1..CPUs serve work.
	e.enc = e.m.NewEnclave(ghost.MaskAll(spec.CPUs + 1))
	e.cp = newControlPolicy(spec.AutoDispatch)
	e.agents = e.m.StartAgents(e.enc, e.cp, ghost.Global())

	// The pool's recorder is a sink; the environment keeps its own
	// per-step and cumulative histograms via the Done hook.
	e.pool = e.m.NewWorkerPool(spec.Workload.Workers, &ghost.LatencyRecorder{},
		func(name string, body ghost.ThreadFunc) *ghost.Thread {
			return e.m.Spawn(ghost.ThreadOpts{Name: name, Class: ghost.Ghost(e.enc)}, body)
		})
	rnd := ghost.NewRand(spec.Seed)
	e.src = e.m.NewPoissonSource(rnd, spec.Workload.Rate, service, func(r *ghost.Request) {
		e.arrivals++
		e.winArrivals++
		r.Done = e.onDone
		e.pool.Submit(r)
	})
	e.src.Until = e.end

	// Register the workload as snapshot components so the whole Env can
	// be forked mid-run (Env.Fork). The rebinder re-attaches the Done
	// hook (a closure the snapshot cannot carry) to in-flight requests.
	e.pool.DoneRebinder = func(r *ghost.Request) { r.Done = e.onDone }
	e.m.AddSnapshotComponent("pool", e.pool)
	e.m.AddSnapshotComponent("src", e.src)
	return e, nil
}

// Fork snapshots the environment at the current Step boundary and
// returns an independent copy positioned at the same simulated time:
// machine, enclave, agent, control-policy state, in-flight requests, and
// the arrival process all carry over, so a warmed-up environment can be
// split into many to sweep action strategies without re-simulating the
// warmup. The fork and the original do not interact; stepping both with
// the same action sequence produces byte-identical observation and
// reward streams.
//
// Fork requires a quiescent boundary (between Steps) and an Env opened
// without Invariants — the protocol oracles watch a run from t=0 and
// cannot be rebuilt mid-stream.
func (e *Env) Fork() (*Env, error) {
	if e.closed {
		return nil, errors.New("env: Fork on a closed environment")
	}
	if e.spec.Invariants {
		return nil, errors.New("env: Fork cannot carry the invariant checker; open without Invariants")
	}
	s, err := e.m.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("env: fork: %w", err)
	}
	// Counters and histograms are plain values — assignment deep-copies.
	ne := &Env{
		spec:        e.spec,
		quantum:     e.quantum,
		end:         e.end,
		stepN:       e.stepN,
		arrivals:    e.arrivals,
		completions: e.completions,
		winArrivals: e.winArrivals,
		winGood:     e.winGood,
		winBad:      e.winBad,
		winHist:     e.winHist,
		totalHist:   e.totalHist,
		done:        e.done,
	}
	// The pool and source carry closures a byte stream cannot hold (the
	// Done hook, the arrival sink), so both restore through shells wired
	// to the new Env.
	m, err := ghost.Restore(s,
		ghost.WithRestoredComponent("pool", func(m *ghost.Machine) (ghost.SnapshotComponent, error) {
			p := m.NewWorkerPoolShell(nil)
			p.DoneRebinder = func(r *ghost.Request) { r.Done = ne.onDone }
			return p, nil
		}),
		ghost.WithRestoredComponent("src", func(m *ghost.Machine) (ghost.SnapshotComponent, error) {
			pool, ok := m.SnapshotComponent("pool").(*ghost.WorkerPool)
			if !ok {
				return nil, errors.New("env: fork: worker pool restored out of order")
			}
			return m.NewPoissonShell(func(r *ghost.Request) {
				ne.arrivals++
				ne.winArrivals++
				r.Done = ne.onDone
				pool.Submit(r)
			}), nil
		}),
	)
	if err != nil {
		return nil, fmt.Errorf("env: fork: %w", err)
	}
	ne.m = m
	ne.pool, _ = m.SnapshotComponent("pool").(*ghost.WorkerPool)
	ne.src, _ = m.SnapshotComponent("src").(*ghost.PoissonSource)
	if ne.pool == nil || ne.src == nil {
		m.Shutdown()
		return nil, errors.New("env: fork: workload components missing after restore")
	}
	sets := m.AgentSets()
	if len(sets) != 1 {
		m.Shutdown()
		return nil, fmt.Errorf("env: fork: want 1 agent set after restore, got %d", len(sets))
	}
	ne.agents = sets[0]
	cp, ok := ne.agents.Policy().(*controlPolicy)
	if !ok {
		m.Shutdown()
		return nil, fmt.Errorf("env: fork: restored policy is %T, not the control policy", ne.agents.Policy())
	}
	ne.cp = cp
	encs := m.Ghost.Enclaves()
	if len(encs) != 1 {
		m.Shutdown()
		return nil, fmt.Errorf("env: fork: want 1 enclave after restore, got %d", len(encs))
	}
	ne.enc = encs[0]
	return ne, nil
}

func (e *Env) onDone(r *ghost.Request, completed ghost.Time) {
	lat := completed - r.Arrival
	e.completions++
	e.winHist.Record(lat)
	e.totalHist.Record(lat)
	if lat <= e.spec.SLO {
		e.winGood++
	} else {
		e.winBad++
	}
}

// Step applies actions, advances simulated time by one quantum (clamped
// to the horizon), and returns the resulting observation, the step
// reward, and whether the horizon has been reached. Once done, further
// Steps return the final observation without advancing.
//
// The reward is (onTime − late) / max(1, arrivals) over the step's
// window, where onTime counts requests completed within the SLO and
// late those that exceeded it: +1 when everything arriving is served in
// time, negative when the SLO is being missed, 0 in an idle window.
func (e *Env) Step(actions []Action) (Observation, float64, bool) {
	if e.done || e.closed {
		return e.observe(), 0, true
	}
	for _, a := range actions {
		e.apply(a)
	}
	if len(e.cp.pendDispatch) > 0 || len(e.cp.pendPreempt) > 0 {
		// A quiescent machine (every worker awaiting dispatch, no wakeups
		// in flight) delivers no messages, so the spin-idling agent must
		// be nudged to execute the queued decisions.
		e.agents.Kick()
	}
	e.winArrivals, e.winGood, e.winBad = 0, 0, 0
	e.winHist.Reset()
	target := e.m.Now() + e.quantum
	if target > e.end {
		target = e.end
	}
	e.m.RunUntil(target)
	e.stepN++
	if e.m.Now() >= e.end {
		e.done = true
	}
	reward := (float64(e.winGood) - float64(e.winBad)) / maxU(1, e.winArrivals)
	return e.observe(), reward, e.done
}

func maxU(a, b uint64) float64 {
	if b > a {
		return float64(b)
	}
	return float64(a)
}

func (e *Env) apply(a Action) {
	switch a.Op {
	case OpDispatch:
		e.cp.pendDispatch = append(e.cp.pendDispatch, a)
	case OpPreempt:
		e.cp.pendPreempt = append(e.cp.pendPreempt, a.CPU)
	case OpSetQuantum:
		if a.Quantum > 0 {
			e.quantum = a.Quantum
		}
	case OpSetBand:
		e.cp.bands[ghost.TID(a.TID)] = a.Band
	}
}

// Observe returns the current observation without advancing time.
func (e *Env) Observe() Observation { return e.observe() }

// Now returns the current simulated time.
func (e *Env) Now() ghost.Time { return e.m.Now() }

// Violations returns the protocol invariant violations recorded so far
// (nil unless Spec.Invariants was set). End-of-run oracles only report
// after Close.
func (e *Env) Violations() []ghost.InvariantViolation {
	inv := e.m.Invariants()
	if inv == nil {
		return nil
	}
	return inv.Violations()
}

// Close shuts the machine down (finalizing invariant oracles) and
// releases the environment. Further Steps are no-ops.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.done = true
	e.pool.Stop()
	e.m.Shutdown()
}
