package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"ghost"
)

// validScenario is the flag defaults' scenario.
func validScenario() scenario {
	return scenario{rate: 100000, service: 10 * time.Microsecond, workers: 32, cpus: 20, dur: time.Second}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	sc := validScenario()
	if err := sc.validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	sc.service, sc.cpus = 0, 1
	if err := sc.validate(); err != nil {
		t.Fatalf("zero service time on one worker CPU rejected: %v", err)
	}
}

// Each of these values used to panic (rate, service, -cpus -1 under a
// ghOSt scheduler) or run and print an empty result with exit 0, and a
// -restore run ignored its -faults plan.
func TestValidateRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		flag string
		set  func(*scenario)
	}{
		{"-rate", func(sc *scenario) { sc.rate = 0 }},
		{"-rate", func(sc *scenario) { sc.rate = -5 }},
		{"-rate", func(sc *scenario) { sc.rate = math.NaN() }},
		{"-rate", func(sc *scenario) { sc.rate = math.Inf(1) }},
		{"-service", func(sc *scenario) { sc.service = -time.Microsecond }},
		{"-cpus", func(sc *scenario) { sc.cpus = -1 }},
		{"-cpus", func(sc *scenario) { sc.cpus = 0 }},
		{"-workers", func(sc *scenario) { sc.workers = 0 }},
		{"-workers", func(sc *scenario) { sc.workers = -1 }},
		{"-dur", func(sc *scenario) { sc.dur = -time.Millisecond }},
		{"-dur", func(sc *scenario) { sc.dur = 0 }},
		{"-snapshot-every", func(sc *scenario) { sc.snapEvery, sc.faultsIn = time.Millisecond, "msgdrop@6ms/1ms" }},
		{"-restore", func(sc *scenario) { sc.restore, sc.faultsIn = "x.snap", "msgdrop@6ms/1ms" }},
	} {
		sc := validScenario()
		tc.set(&sc)
		err := sc.validate()
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%+v: validate() = %v, want an error naming %s", sc, err, tc.flag)
		}
	}
}

// TestRestoreMetrics: -metrics prints the report after a -restore run
// too, and its engine: line, which the image carries, covers the whole
// run: it equals the uninterrupted run's, as the digest does.
func TestRestoreMetrics(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	sc := validScenario()
	sc.machine, sc.topo, sc.sched, sc.seed = "xeon-e5", ghost.XeonE5(), "ghost-shinjuku", 1
	sc.dur, sc.snapEvery, sc.metrics, sc.invar = 20*time.Millisecond, 10*time.Millisecond, true, true
	full, err := sc.run()
	if err != nil {
		t.Fatalf("full run: %v\n%s", err, full)
	}
	sc.snapEvery, sc.restore = 0, "ghost-sim-seed1-t10.000ms.snap"
	resumed, err := sc.runRestored()
	if err != nil {
		t.Fatalf("restored run: %v\n%s", err, resumed)
	}
	for _, prefix := range []string{"digest:", "engine:"} {
		want, got := lineWith(full, prefix), lineWith(resumed, prefix)
		if want == "" || got != want {
			t.Errorf("restored run's %q line is %q, the full run's %q", prefix, got, want)
		}
	}
}

// TestRestoreTrace: -trace after -restore writes the resumed span's
// trace as a valid trace_event file.
func TestRestoreTrace(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	sc := validScenario()
	sc.machine, sc.topo, sc.sched, sc.seed = "xeon-e5", ghost.XeonE5(), "ghost-fifo", 1
	sc.dur, sc.snapEvery = 10*time.Millisecond, 5*time.Millisecond
	if out, err := sc.run(); err != nil {
		t.Fatalf("full run: %v\n%s", err, out)
	}
	sc.snapEvery, sc.restore, sc.traceOut = 0, "ghost-sim-seed1-t5.000ms.snap", "out.json"
	resumed, err := sc.runRestored()
	if err != nil {
		t.Fatalf("restored run: %v\n%s", err, resumed)
	}
	if lineWith(resumed, "trace:") == "" {
		t.Errorf("restored run names no trace file:\n%s", resumed)
	}
	raw, err := os.ReadFile("out.json")
	if err != nil {
		t.Fatalf("restored run wrote no trace: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph string  `json:"ph"`
			Ts float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	resumedEvents := 0
	for _, e := range tf.TraceEvents {
		if e.Ph != "M" && e.Ts >= 5000 {
			resumedEvents++
		}
	}
	if resumedEvents == 0 {
		t.Error("restored run's trace holds no event of the resumed span")
	}
}

// TestSnapshotEvery: a fresh -snapshot-every run checkpoints at every
// multiple of the period up to and including -dur and skips none, and a
// run restored from one of them checkpoints only at the later multiples,
// with the fresh run's digests.
func TestSnapshotEvery(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	sc := validScenario()
	sc.machine, sc.topo, sc.sched, sc.seed = "xeon-e5", ghost.XeonE5(), "ghost-shinjuku", 1
	sc.dur, sc.snapEvery = 25*time.Millisecond, 5*time.Millisecond
	full, err := sc.run()
	if err != nil {
		t.Fatalf("full run: %v\n%s", err, full)
	}
	fullCks := linesWith(full, "snapshot")
	var want []string
	for _, ms := range []int{5, 10, 15, 20, 25} {
		want = append(want, fmt.Sprintf("ghost-sim-seed1-t%d.000ms.snap", ms))
	}
	if got := snapFiles(fullCks); !slices.Equal(got, want) {
		t.Fatalf("fresh run checkpoints %v, want %v:\n%s", got, want, full)
	}

	sc.restore = "ghost-sim-seed1-t15.000ms.snap"
	resumed, err := sc.runRestored()
	if err != nil {
		t.Fatalf("restored run: %v\n%s", err, resumed)
	}
	if got := linesWith(resumed, "snapshot"); !slices.Equal(got, fullCks[3:]) {
		t.Fatalf("run restored at 15ms lists checkpoints\n%s\nwant the fresh run's t20 and t25:\n%s",
			strings.Join(got, "\n"), strings.Join(fullCks[3:], "\n"))
	}
	if got, want := lineWith(resumed, "digest:"), lineWith(full, "digest:"); got != want {
		t.Errorf("restored run's final %q, the fresh run's %q", got, want)
	}
}

// snapFiles returns the file each "snapshot:" line names.
func snapFiles(lines []string) []string {
	var files []string
	for _, l := range lines {
		if f := strings.Fields(l); len(f) > 1 {
			files = append(files, f[1])
		}
	}
	return files
}

// linesWith returns the lines of out that start with prefix.
func linesWith(out, prefix string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			lines = append(lines, line)
		}
	}
	return lines
}

// lineWith returns the first line of out that starts with prefix.
func lineWith(out, prefix string) string {
	if lines := linesWith(out, prefix); len(lines) > 0 {
		return lines[0]
	}
	return ""
}
