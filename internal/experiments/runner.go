package experiments

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Job is one independent simulation configuration in a sweep. Run builds
// its own machine (engines are single-threaded and share nothing), so
// jobs from the same sweep can execute concurrently. Name labels the
// job in CPU profiles; determinism comes from Run seeding its own
// generators.
type Job struct {
	Name string
	Run  func() any
}

// RunJobs executes jobs across a bounded worker pool and returns their
// results in submission order, so a report rendered from the results is
// byte-identical whatever the parallelism. parallel <= 1 runs serially;
// parallel == 0 is treated as 1 (callers resolve defaults via
// Options.Parallelism).
func RunJobs(parallel int, jobs []Job) []any {
	out := make([]any, len(jobs))
	if parallel <= 1 || len(jobs) <= 1 {
		for i, j := range jobs {
			out[i] = runLabeled(j)
		}
		return out
	}
	if parallel > len(jobs) {
		parallel = len(jobs)
	}
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i, j := range jobs {
		sem <- struct{}{}
		go func(i int, j Job) {
			defer func() {
				<-sem
				wg.Done()
			}()
			out[i] = runLabeled(j)
		}(i, j)
	}
	wg.Wait()
	return out
}

// runLabeled executes one job under a pprof label carrying its name, so
// CPU profiles recorded with -cpuprofile attribute samples per job
// (`go tool pprof -tagleaf job profile`). Unnamed jobs (anonymous sweep
// points) skip the label plumbing.
func runLabeled(j Job) (result any) {
	if j.Name == "" {
		return j.Run()
	}
	pprof.Do(context.Background(), pprof.Labels("job", j.Name), func(context.Context) {
		result = j.Run()
	})
	return result
}

// Parallelism resolves Options.Parallel: 0 means one worker per core.
func (o Options) Parallelism() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// sweep runs fn(0..n-1) as one Job each — the common shape of a figure
// sweep over loads, CPU counts, or schedulers — and returns the typed
// results in index order.
func sweep[R any](o Options, n int, fn func(i int) R) []R {
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{Run: func() any { return fn(i) }}
	}
	raw := RunJobs(o.Parallelism(), jobs)
	out := make([]R, n)
	for i, r := range raw {
		out[i] = r.(R)
	}
	return out
}
