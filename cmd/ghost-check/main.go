// Command ghost-check is the property-based invariant checker for the
// ghOSt protocol: it generates seed-deterministic random scenarios
// (policies, thread mixes, topologies, fault plans), runs each one with
// the internal/check oracles attached, and on a violation shrinks the
// scenario to a minimal repro.
//
// Usage:
//
//	ghost-check -seeds 500 -parallel 8     # scan seeds 1..500
//	ghost-check -quick -seeds 25           # CI smoke configuration
//	ghost-check -repro "seed=7 policy=shinjuku cpus=4 threads=6 horizon=20.000ms"
//	ghost-check -seed 42 -mutate skip-tseq # run one seed with a seeded bug
//
// Exit status is 1 if any invariant was violated, 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"ghost/internal/check"
	"ghost/internal/cli"
	"ghost/internal/experiments"
	"ghost/internal/sim"
	"ghost/internal/snap"
)

func main() { os.Exit(realMain()) }

// realMain returns the exit status instead of calling os.Exit inline,
// so the deferred -cpuprofile/-memprofile stop function always runs.
func realMain() int {
	var (
		c        cli.Common
		repro    = flag.String("repro", "", `run one scenario from a repro string, e.g. "seed=7 policy=shinjuku cpus=4 threads=6 horizon=20.000ms"`)
		mutate   = flag.String("mutate", "", "seed an intentional protocol bug: "+strings.Join(check.MutationNames(), ", "))
		noShrink = flag.Bool("noshrink", false, "report the first failing scenario without shrinking it")
		verbose  = flag.Bool("v", false, "print every scenario as it is checked")
	)
	c.SeedFlag(flag.CommandLine, 1)
	c.SeedsFlag(flag.CommandLine, 100, "scenarios")
	c.ParallelFlag(flag.CommandLine)
	c.QuickFlag(flag.CommandLine, "halve every scenario horizon (CI smoke mode)")
	c.SnapshotFlags(flag.CommandLine)
	c.ProfileFlags(flag.CommandLine)
	flag.Parse()

	if (c.SnapshotEvery > 0 || c.Restore != "") && *repro == "" {
		fmt.Fprintln(os.Stderr, "ghost-check: -snapshot-every/-restore need a single scenario; use -repro")
		return 2
	}

	if *mutate != "" && !slices.Contains(check.MutationNames(), *mutate) {
		fmt.Fprintf(os.Stderr, "ghost-check: unknown mutation %q (want one of %s)\n",
			*mutate, strings.Join(check.MutationNames(), ", "))
		return 2
	}

	stop, err := c.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghost-check:", err)
		return 2
	}
	defer stop()

	if *repro != "" {
		s, err := check.ParseRepro(*repro)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ghost-check:", err)
			return 2
		}
		if *mutate != "" {
			s.Mutation = *mutate
		}
		if c.Restore != "" {
			return reproFromFile(s, c.Restore)
		}
		if c.SnapshotEvery > 0 {
			return reproWithRewind(s, sim.Duration(c.SnapshotEvery))
		}
		return reportScenario(s.Run())
	}

	jobs := make([]experiments.Job, c.Seeds)
	for i := range jobs {
		s := check.Generate(c.Seed + uint64(i))
		if c.Quick {
			if s.Horizon /= 2; s.Horizon < 5*sim.Millisecond {
				s.Horizon = 5 * sim.Millisecond
			}
		}
		s.Mutation = *mutate
		jobs[i] = experiments.Job{
			Name: s.Repro(),
			Run:  func() any { return s.Run() },
		}
	}
	results := experiments.RunJobs(c.Parallel, jobs)

	failures := 0
	for _, r := range results {
		res := r.(*check.Result)
		if *verbose {
			fmt.Printf("checked %s: %d violations\n", res.Scenario.Repro(), len(res.Violations))
		}
		if !res.Failed() {
			continue
		}
		failures++
		if failures > 1 {
			// Report every failing seed but only shrink the first.
			fmt.Printf("\nFAIL %s (%d violations)\n", res.Scenario.Repro(), len(res.Violations))
			continue
		}
		reportFailure(res, !*noShrink)
	}
	if failures > 0 {
		fmt.Printf("\nghost-check: %d/%d scenarios violated invariants\n", failures, len(jobs))
		return 1
	}
	fmt.Printf("ghost-check: %d scenarios OK (seeds %d..%d)\n", len(jobs), c.Seed, c.Seed+uint64(c.Seeds)-1)
	return 0
}

// reproWithRewind runs a repro scenario with periodic checkpoints and,
// if it fails, rewinds from the last checkpoint before the first
// violation, reporting how many events the rewind replayed versus
// skipped. The rewind checkpoint is written to a .snap file so a later
// `-restore FILE` resumes from it directly.
func reproWithRewind(s check.Scenario, every sim.Duration) int {
	if ok, why := s.SnapshotCapable(); !ok {
		fmt.Fprintf(os.Stderr, "ghost-check: scenario is not snapshot-capable (%s); running without checkpoints\n", why)
		return reportScenario(s.Run())
	}
	cr := s.RunWithCheckpoints(every)
	if cr.Skips > 0 {
		fmt.Fprintf(os.Stderr, "ghost-check: %d checkpoint boundaries skipped (first: %s)\n",
			cr.Skips, cr.SkipReasons[0])
	}
	if !cr.Result.Failed() {
		fmt.Printf("ghost-check: OK: %s (%d checkpoints, %d events)\n",
			s.Repro(), len(cr.Checkpoints), cr.FinalExecuted)
		return 0
	}
	reportFailure(cr.Result, false)
	rep, err := check.Rewind(s, cr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghost-check: rewind:", err)
		return 1
	}
	fmt.Printf("rewind: from checkpoint t=%v replayed %d events, skipped %d (t=0 re-run executes %d)\n",
		rep.From, rep.Replayed, rep.Skipped, cr.FinalExecuted)
	if rep.Result.Failed() {
		fmt.Printf("rewind: reproduced %d violations\n", len(rep.Result.Violations))
	} else {
		fmt.Printf("rewind: no violations after the checkpoint (evidence predates it; rewind from an earlier checkpoint)\n")
	}
	if best := cr.CheckpointBefore(cr.Result.Violations[0].Time); best != nil {
		file := fmt.Sprintf("ghost-check-rewind-seed%d.snap", s.Seed)
		if err := writeImage(file, best.Img); err != nil {
			fmt.Fprintln(os.Stderr, "ghost-check:", err)
		} else {
			fmt.Printf("rewind: checkpoint saved to %s; resume it with\n  ghost-check -repro %q -restore %s\n",
				file, s.Repro(), file)
		}
	}
	return 1
}

// reproFromFile rewinds a repro scenario from an on-disk checkpoint
// written by an earlier -snapshot-every run.
func reproFromFile(s check.Scenario, file string) int {
	f, err := os.Open(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghost-check:", err)
		return 2
	}
	img, err := snap.Decode(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ghost-check: %s: %v\n", file, err)
		return 2
	}
	rep, err := check.RewindFrom(s, img)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghost-check:", err)
		return 2
	}
	fmt.Printf("rewind: from %s (t=%v) replayed %d events, skipped %d\n",
		file, rep.From, rep.Replayed, rep.Skipped)
	return reportScenario(rep.Result)
}

// writeImage encodes a checkpoint image to a .snap file.
func writeImage(file string, img *snap.Image) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if err := img.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportScenario prints one result and returns the exit status.
func reportScenario(res *check.Result) int {
	if !res.Failed() {
		fmt.Printf("ghost-check: OK: %s\n", res.Scenario.Repro())
		return 0
	}
	reportFailure(res, false)
	return 1
}

// reportFailure prints a failing scenario's violations and, when asked,
// shrinks it to a minimal repro.
func reportFailure(res *check.Result, shrink bool) {
	fmt.Printf("\nFAIL %s\n", res.Scenario.Repro())
	for _, v := range res.Violations {
		fmt.Printf("  %s\n", v)
	}
	if !shrink {
		return
	}
	fmt.Printf("shrinking...\n")
	small, sres := check.Shrink(res.Scenario)
	fmt.Printf("minimal repro (%d violations, %d threads, %d fault ops):\n",
		len(sres.Violations), small.Threads, small.FaultOps())
	fmt.Printf("  ghost-check -repro %q\n", small.Repro())
	for _, v := range sres.Violations {
		fmt.Printf("  %s\n", v)
	}
}
