// Package cli centralizes the flag vocabulary shared by the ghost
// commands (ghost-sim, ghost-bench, ghost-check): one spelling, default,
// and usage string each for -seed, -seeds, -parallel, -quick,
// -snapshot-every, -restore, -cpuprofile, and -memprofile, so the tools
// read identically in -help
// and scripts can move between them without translating flags. Each
// command registers the subset it supports; the values land in one
// Common struct.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// Common holds the values of the shared flags a command registered.
type Common struct {
	Seed          uint64
	Seeds         int
	Parallel      int
	Quick         bool
	SnapshotEvery time.Duration
	Restore       string
	CPUProfile    string
	MemProfile    string
}

// SeedFlag registers -seed: the first (or only) random seed.
func (c *Common) SeedFlag(fs *flag.FlagSet, def uint64) {
	fs.Uint64Var(&c.Seed, "seed", def, "first random seed; every run is deterministic in the seed")
}

// SeedsFlag registers -seeds: how many consecutive seeds to run. The
// noun names what one seed produces ("simulations", "scenarios").
func (c *Common) SeedsFlag(fs *flag.FlagSet, def int, noun string) {
	fs.IntVar(&c.Seeds, "seeds", def,
		"run N consecutive seeds (seed, seed+1, ...) as independent "+noun)
}

// ParallelFlag registers -parallel: the worker pool for independent runs.
func (c *Common) ParallelFlag(fs *flag.FlagSet) {
	fs.IntVar(&c.Parallel, "parallel", 0,
		"worker pool for independent runs (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")
}

// QuickFlag registers -quick. The effect string names what the fast
// pass shrinks in this command.
func (c *Common) QuickFlag(fs *flag.FlagSet, effect string) {
	fs.BoolVar(&c.Quick, "quick", false, effect)
}

// SnapshotFlags registers -snapshot-every and -restore: the shared
// checkpoint/restore vocabulary. What a snapshot boundary produces is
// per command (ghost-sim writes .snap files, ghost-check rewinds a
// failing repro), but the spelling, units, and help text are identical
// everywhere.
func (c *Common) SnapshotFlags(fs *flag.FlagSet) {
	fs.DurationVar(&c.SnapshotEvery, "snapshot-every", 0,
		"snapshot the simulated machine every D of simulated time (0 = never); see the command's docs for what each checkpoint is used for")
	fs.StringVar(&c.Restore, "restore", "",
		"resume from the .snap FILE a previous -snapshot-every run wrote, instead of starting at t=0")
}

// ProfileFlags registers -cpuprofile and -memprofile: runtime/pprof
// recording of the command's own execution, for chasing simulator hot
// spots (scripts/profile.sh wraps the workflow).
func (c *Common) ProfileFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.CPUProfile, "cpuprofile", "",
		"write a pprof CPU profile of this run to the given file")
	fs.StringVar(&c.MemProfile, "memprofile", "",
		"write a pprof heap profile (after GC) to the given file at exit")
}

// StartProfiles begins CPU profiling if -cpuprofile was given and
// returns a function that stops it and writes the -memprofile heap
// snapshot. The caller must invoke stop on every exit path that should
// produce valid profiles (a plain defer in main suffices; error paths
// that os.Exit early just truncate the recording).
func (c *Common) StartProfiles() (stop func(), err error) {
	var cpuF *os.File
	if c.CPUProfile != "" {
		cpuF, err = os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}
	}, nil
}

// Labeled runs f under a pprof label pair, so CPU samples recorded via
// -cpuprofile can be sliced per experiment or phase with
// `go tool pprof -tagfocus` / `-tagleaf`. Labels propagate to goroutines
// f spawns — machine executor goroutines inherit their experiment's tag.
func Labeled(key, value string, f func()) {
	pprof.Do(context.Background(), pprof.Labels(key, value), func(context.Context) { f() })
}
