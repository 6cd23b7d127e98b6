package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestQuickPasses runs every workload at -quick size, two untraced reps
// plus the traced rep, and checks the outputs the benchmark relies on.
func TestQuickPasses(t *testing.T) {
	ocs := runBenchmark(config{workloads: workloads, seed: 1, traced: true, sz: quickSizes}, io.Discard)
	for _, oc := range ocs {
		if oc.failed > 0 || len(oc.reps) != 2 || oc.traced == nil {
			t.Fatalf("%s: %d reps, traced=%v, problems %q", oc.w.name, len(oc.reps), oc.traced != nil, oc.problems)
		}
		// Digests repeat across reps, and the traced rep, which runs
		// the policy behind the timing wrapper and the Poisson sink
		// behind a span, matches them: both wrappers are transparent.
		for _, r := range []*repResult{oc.reps[1], oc.traced} {
			if r.digest != oc.reps[0].digest {
				t.Errorf("%s: digest differs from rep 1:\n%s\nvs\n%s", oc.w.name, r.summary, oc.reps[0].summary)
			}
		}
		if oc.w.build == nil {
			continue
		}
		// Every span under ghost.run is attributed exactly once.
		wall, self := oc.spans.runAccounting()
		if wall <= 0 || self < wall*98/100 || self > wall*102/100 {
			t.Errorf("%s: self times %v do not account for ghost.run wall %v", oc.w.name, self, wall)
		}
		if oc.reps[0].layer["agentsdk.steps"] > 0 && oc.spans.agg[spanSchedule].count == 0 {
			t.Errorf("%s: policy wrapper saw no Schedule call", oc.w.name)
		}
	}

	// Every per-layer value computed has a definition, so none is
	// silently dropped from the result.
	names := map[string]bool{}
	for _, d := range perLayer {
		names[d.name] = true
	}
	for _, oc := range ocs {
		for k := range perLayerValues(oc) {
			if !names[k] {
				t.Errorf("%s: per-layer value %q has no definition", oc.w.name, k)
			}
		}
	}

	// Every metric BENCHMARK.json names is emitted with its unit, and
	// nothing else is.
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, pass := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, b.EndToEnd}, {true, b.PerLayer}} {
		res := summarize(ocs, pass.traced, io.Discard)
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("traced=%v: correct=%v failed=%d", pass.traced, res.Correct, res.Failed)
		}
		if got, want := len(res.Metrics), len(pass.want)*len(workloads); got != want {
			t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json implies %d", pass.traced, got, want)
		}
		for _, w := range workloads {
			for _, m := range pass.want {
				got, ok := res.Metrics[w.name+"/"+m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s/%s: emitted %+v (present %v), want unit %q", w.name, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestResultLine checks the command-line contract on one workload: the
// last line is one JSON object with exactly the four keys, and metric
// names are bare.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"--workload", "check-scan", "--seed", "3", "--seconds", "0", "--trace", "0", "-quick"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if m, ok := metrics[d.name]; !ok || m.Value <= 0 {
			t.Errorf("%s: %+v", d.name, m)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "-1"},
		{"extra"},
	} {
		if code := realMain(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
}
