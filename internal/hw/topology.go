// Package hw models the hardware a simulated kernel runs on: CPU topology
// (sockets, CCXs, physical cores, SMT siblings) and a nanosecond cost model
// for scheduling-relevant operations (context switches, IPIs, message
// delivery, cache-warmth migration penalties).
//
// The presets mirror the machines used in the ghOSt paper's evaluation and
// the cost model is parameterised from the paper's Table 3 so that the
// simulator's absolute numbers are anchored to measured hardware.
package hw

import "fmt"

// CPUID identifies a logical CPU (a hardware thread).
type CPUID int

// NoCPU is the sentinel for "no CPU".
const NoCPU CPUID = -1

// Distance expresses how far apart two CPUs are in the cache hierarchy.
// Larger is farther; migration penalties grow with distance.
type Distance int

// Topological distances between two logical CPUs.
const (
	DistSelf   Distance = iota // same logical CPU
	DistSMT                    // SMT siblings on one physical core (share L1/L2)
	DistCCX                    // same core complex (share L3)
	DistSocket                 // same socket, different CCX
	DistRemote                 // different sockets
)

func (d Distance) String() string {
	switch d {
	case DistSelf:
		return "self"
	case DistSMT:
		return "smt"
	case DistCCX:
		return "ccx"
	case DistSocket:
		return "socket"
	case DistRemote:
		return "remote"
	}
	return fmt.Sprintf("Distance(%d)", int(d))
}

// CPU describes one logical CPU's position in the topology.
type CPU struct {
	ID       CPUID
	Core     int     // physical core index (machine-wide)
	CCX      int     // core-complex index (machine-wide); the L3 domain
	Socket   int     // NUMA socket index
	Siblings []CPUID // logical CPUs on the same physical core, including self
}

// Sibling returns the other hyperthread of this CPU's physical core, or
// NoCPU when the core is not SMT.
func (c *CPU) Sibling() CPUID {
	for _, s := range c.Siblings {
		if s != c.ID {
			return s
		}
	}
	return NoCPU
}

// Topology is an immutable description of a machine's CPUs.
type Topology struct {
	Name string
	cpus []CPU

	coresPerCCX   int
	ccxsPerSocket int
	sockets       int
	smtWidth      int
}

// MaxCPUs is the largest logical CPU count a topology may have; CPU
// masks are fixed 256-bit sets.
const MaxCPUs = 256

// Config describes a machine to build with NewTopology.
type Config struct {
	Name          string
	Sockets       int
	CCXsPerSocket int // L3 domains per socket (1 for monolithic Intel LLC)
	CoresPerCCX   int
	SMTWidth      int // logical CPUs per physical core (1 or 2)
}

// NewTopology builds a topology with CPU IDs assigned in the Linux
// convention: CPU i and CPU i + ncores are SMT siblings, where ncores is
// the machine-wide physical core count.
// It panics on a Config that Validate rejects.
func NewTopology(cfg Config) *Topology {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	ncores := cfg.Sockets * cfg.CCXsPerSocket * cfg.CoresPerCCX
	ncpus := ncores * cfg.SMTWidth
	t := &Topology{
		Name:          cfg.Name,
		cpus:          make([]CPU, ncpus),
		coresPerCCX:   cfg.CoresPerCCX,
		ccxsPerSocket: cfg.CCXsPerSocket,
		sockets:       cfg.Sockets,
		smtWidth:      cfg.SMTWidth,
	}
	for core := 0; core < ncores; core++ {
		ccx := core / cfg.CoresPerCCX
		socket := ccx / cfg.CCXsPerSocket
		var sibs []CPUID
		for w := 0; w < cfg.SMTWidth; w++ {
			sibs = append(sibs, CPUID(core+w*ncores))
		}
		for w := 0; w < cfg.SMTWidth; w++ {
			id := CPUID(core + w*ncores)
			t.cpus[id] = CPU{
				ID:       id,
				Core:     core,
				CCX:      ccx,
				Socket:   socket,
				Siblings: sibs,
			}
		}
	}
	return t
}

// Validate reports whether NewTopology can build cfg: every dimension
// positive, an SMT width of 1 or 2, and at most MaxCPUs logical CPUs.
func (cfg Config) Validate() error {
	if cfg.Sockets <= 0 || cfg.CCXsPerSocket <= 0 || cfg.CoresPerCCX <= 0 {
		return fmt.Errorf("hw: topology dimensions must be positive, got %d sockets × %d CCXs × %d cores",
			cfg.Sockets, cfg.CCXsPerSocket, cfg.CoresPerCCX)
	}
	if cfg.SMTWidth < 1 || cfg.SMTWidth > 2 {
		return fmt.Errorf("hw: SMT width must be 1 or 2, got %d", cfg.SMTWidth)
	}
	// Divide rather than multiply, so huge dimensions cannot overflow.
	if cfg.Sockets > MaxCPUs/cfg.CCXsPerSocket/cfg.CoresPerCCX/cfg.SMTWidth {
		return fmt.Errorf("hw: topology has more than %d CPUs (%d sockets × %d CCXs × %d cores × %d SMT)",
			MaxCPUs, cfg.Sockets, cfg.CCXsPerSocket, cfg.CoresPerCCX, cfg.SMTWidth)
	}
	return nil
}

// Config returns the configuration this topology was built from, so an
// identical machine can be rebuilt (snapshot restore).
func (t *Topology) Config() Config {
	return Config{
		Name:          t.Name,
		Sockets:       t.sockets,
		CCXsPerSocket: t.ccxsPerSocket,
		CoresPerCCX:   t.coresPerCCX,
		SMTWidth:      t.smtWidth,
	}
}

// NumCPUs returns the number of logical CPUs.
func (t *Topology) NumCPUs() int { return len(t.cpus) }

// NumCores returns the number of physical cores.
func (t *Topology) NumCores() int { return len(t.cpus) / t.smtWidth }

// NumSockets returns the number of NUMA sockets.
func (t *Topology) NumSockets() int { return t.sockets }

// NumCCXs returns the number of L3 domains.
func (t *Topology) NumCCXs() int { return t.sockets * t.ccxsPerSocket }

// CPU returns the descriptor for logical CPU id.
func (t *Topology) CPU(id CPUID) *CPU {
	return &t.cpus[id]
}

// Dist returns the topological distance between two logical CPUs.
func (t *Topology) Dist(a, b CPUID) Distance {
	ca, cb := &t.cpus[a], &t.cpus[b]
	switch {
	case a == b:
		return DistSelf
	case ca.Core == cb.Core:
		return DistSMT
	case ca.CCX == cb.CCX:
		return DistCCX
	case ca.Socket == cb.Socket:
		return DistSocket
	default:
		return DistRemote
	}
}

// CPUsOfSocket returns the logical CPUs belonging to socket s, in ID order.
func (t *Topology) CPUsOfSocket(s int) []CPUID {
	var out []CPUID
	for i := range t.cpus {
		if t.cpus[i].Socket == s {
			out = append(out, t.cpus[i].ID)
		}
	}
	return out
}

// Machine presets used throughout the paper's evaluation (§4).

// SkylakeDefault models the 2-socket Intel Xeon Platinum 8173M
// microbenchmark machine: 28 cores/socket, 2-way SMT, 112 CPUs, one LLC
// per socket.
func SkylakeDefault() *Topology {
	return NewTopology(Config{
		Name: "skylake-8173m", Sockets: 2, CCXsPerSocket: 1,
		CoresPerCCX: 28, SMTWidth: 2,
	})
}

// Haswell models the 2-socket Haswell machine from Fig 5: 18 physical
// cores/socket, 2-way SMT, 72 CPUs.
func Haswell() *Topology {
	return NewTopology(Config{
		Name: "haswell", Sockets: 2, CCXsPerSocket: 1,
		CoresPerCCX: 18, SMTWidth: 2,
	})
}

// XeonE5 models the 2-socket Intel Xeon E5-2658 used for the Shinjuku
// comparison (§4.2): 12 cores/socket, 2-way SMT, 48 CPUs.
func XeonE5() *Topology {
	return NewTopology(Config{
		Name: "xeon-e5-2658", Sockets: 2, CCXsPerSocket: 1,
		CoresPerCCX: 12, SMTWidth: 2,
	})
}

// AMDRome models the Google Search machine (§4.4): 2 sockets, 64 physical
// cores per socket clustered into CCXs of 4 cores sharing an L3, 2-way
// SMT, 256 CPUs.
func AMDRome() *Topology {
	return NewTopology(Config{
		Name: "amd-rome", Sockets: 2, CCXsPerSocket: 16,
		CoresPerCCX: 4, SMTWidth: 2,
	})
}
