// Package experiments contains one driver per table and figure of the
// ghOSt paper's evaluation (§4). Each experiment builds the machine and
// workload it needs, runs the schedulers under comparison on simulated
// time, and renders the same rows/series the paper reports. The absolute
// numbers come from a simulator anchored to the paper's Table 3 cost
// model; the object of reproduction is the shape — who wins, by what
// factor, and where the crossovers fall.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"ghost"
	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Options tunes experiment size. Quick shrinks durations and sweeps for
// CI/test runs; the shapes remain, the tails get noisier.
type Options struct {
	Quick bool
	Seed  uint64
	// Parallel bounds the worker pool used for independent sweep points
	// (RunJobs). 0 means GOMAXPROCS; 1 forces serial execution. Results
	// are collected in submission order, so reports are byte-identical
	// at any setting.
	Parallel int
}

// Report is the rendered outcome of one experiment.
type Report struct {
	ID    string
	Title string
	// Header and Rows form the primary table.
	Header []string
	Rows   [][]string
	// Notes records paper-vs-measured commentary.
	Notes []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Notef appends a formatted note.
func (r *Report) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	rows := make([][]string, 0, len(r.Rows)+1)
	if len(r.Header) > 0 {
		rows = append(rows, r.Header)
	}
	rows = append(rows, r.Rows...)
	var widths []int
	for _, row := range rows {
		for i, c := range row {
			for len(widths) <= i {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, row := range rows {
		for i, c := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteByte('\n')
		if ri == 0 && len(r.Header) > 0 {
			for i := range row {
				b.WriteString(strings.Repeat("-", widths[i]) + "  ")
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one reproducible table/figure driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) *Report
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment, nil if unknown.
func ByID(id string) *Experiment {
	for i := range registry {
		if registry[i].ID == id {
			return &registry[i]
		}
	}
	return nil
}

// machine bundles a public ghost.Machine with direct handles on the
// class stack, so experiment drivers keep their terse m.eng / m.cfs
// field access while all construction flows through the public
// functional-options API.
type machine struct {
	m   *ghost.Machine
	eng *sim.Engine
	k   *kernel.Kernel
	cfs *kernel.CFS
	ac  *kernel.AgentClass
	mq  *kernel.MicroQuanta
	g   *ghostcore.Class
}

// machineOpts selects the stack variant. The full class stack is always
// present (the ghOSt and MicroQuanta classes are inert while empty);
// extra forwards additional public options such as ghost.WithFaults.
type machineOpts struct {
	topo  *hw.Topology
	extra []ghost.MachineOption
}

func newMachine(o machineOpts) *machine {
	gm := ghost.NewMachine(o.topo, append([]ghost.MachineOption{ghost.WithoutMetrics()}, o.extra...)...)
	return &machine{
		m: gm, eng: gm.Kernel().Engine(), k: gm.Kernel(),
		cfs: gm.CFS, ac: gm.Agents, mq: gm.MicroQuanta, g: gm.Ghost,
	}
}

// enclaveOn builds an enclave over the given CPUs.
func (m *machine) enclaveOn(cpus ...hw.CPUID) *ghostcore.Enclave {
	return m.m.NewEnclave(kernel.MaskOf(cpus...))
}

// startCentral starts a centralized agent set.
func (m *machine) startCentral(enc *ghostcore.Enclave, pol agentsdk.GlobalPolicy, opts ...agentsdk.Option) *agentsdk.AgentSet {
	return m.m.StartAgents(enc, pol, append(opts, agentsdk.Global())...)
}

// us formats a duration in microseconds with 2 decimals.
func us(d sim.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(sim.Microsecond))
}

// ns formats a duration in integer nanoseconds.
func ns(d sim.Duration) string { return fmt.Sprintf("%d", int64(d)) }
