package policies_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the mid-run snapshot goldens in testdata/")

// snapPolicy is the snapshot surface the centralized policies share.
type snapPolicy interface {
	agentsdk.GlobalPolicy
	SnapshotSave() ([]byte, error)
	SnapshotLoad([]byte) error
}

// midRun drives pol under an overloaded RocksDB-mix pool on an 8-CPU
// enclave (agent on cpu0) until its placement tables are populated,
// and returns the policy's serialized state at that point.
func midRun(t *testing.T, pol snapPolicy) []byte {
	t.Helper()
	e := newEnv(t, topo8(), kernel.MaskAll(8))
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())
	rec := &workload.LatencyRecorder{}
	pool := workload.NewWorkerPool(e.k, 24, rec, func(name string, body kernel.ThreadFunc) *kernel.Thread {
		return e.enc.SpawnThread(kernel.SpawnOpts{Name: name}, body)
	})
	workload.NewPoissonSource(e.eng, sim.NewRand(11), 400000, workload.RocksDBService(), pool.Submit)
	e.eng.RunFor(3*sim.Millisecond + 7*sim.Microsecond)
	data, err := pol.SnapshotSave()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"running":[[`)) {
		t.Fatalf("mid-run state has no placements; the golden would not cover them:\n%s", data)
	}
	return data
}

// TestSnapshotSaveGolden pins each centralized policy's mid-run wire
// bytes, placements included. Regenerate with -update only for a
// deliberate format change.
func TestSnapshotSaveGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  snapPolicy
	}{
		{"shinjuku", policies.NewShinjuku()},
		{"central-fifo", policies.NewCentralFIFO()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := midRun(t, tc.pol)
			path := filepath.Join("testdata", "midrun_"+tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s state drifted from %s:\ngot  %s\nwant %s", tc.name, path, got, want)
			}
		})
	}
}

// TestSnapshotLoadRejectsHostileState feeds each centralized policy a
// valid mid-run state with one field corrupted; every load must return
// an error rather than panic or install an inconsistent table.
func TestSnapshotLoadRejectsHostileState(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() snapPolicy
	}{
		{"shinjuku", func() snapPolicy { return policies.NewShinjuku() }},
		{"central-fifo", func() snapPolicy { return policies.NewCentralFIFO() }},
	} {
		pol := tc.mk()
		valid := midRun(t, pol)
		var st map[string]json.RawMessage
		if err := json.Unmarshal(valid, &st); err != nil {
			t.Fatal(err)
		}
		var running [][2]int
		if err := json.Unmarshal(st["running"], &running); err != nil {
			t.Fatal(err)
		}
		var tracker []map[string]any
		if err := json.Unmarshal(st["tracker"], &tracker); err != nil {
			t.Fatal(err)
		}
		tid := running[0][1]
		type mutation struct {
			name, key string
			val       any
		}
		muts := []mutation{
			{"tracker cpu below -1", "tracker", withCPU(tracker, -2)},
			{"tracker cpu past NumCPUs", "tracker", withCPU(tracker, 8)},
			{"running cpu negative", "running", [][2]int{{-1, tid}}},
			{"running cpu past NumCPUs", "running", [][2]int{{8, tid}}},
			{"running cpu far out of range", "running", [][2]int{{1 << 30, tid}}},
			{"running duplicate cpu", "running", [][2]int{running[0], running[0]}},
			{"running untracked tid", "running", [][2]int{{running[0][0], 99999}}},
			{"running cpu disagrees with tracker", "running", [][2]int{{(running[0][0] + 1) % 8, tid}}},
		}
		for _, m := range muts {
			t.Run(tc.name+"/"+m.name, func(t *testing.T) {
				bad := make(map[string]json.RawMessage, len(st))
				for k, v := range st {
					bad[k] = v
				}
				raw, err := json.Marshal(m.val)
				if err != nil {
					t.Fatal(err)
				}
				bad[m.key] = raw
				data, err := json.Marshal(bad)
				if err != nil {
					t.Fatal(err)
				}
				if err := pol.SnapshotLoad(data); err == nil {
					t.Fatal("load accepted the corrupted state")
				} else if !strings.Contains(err.Error(), tc.name) {
					t.Fatalf("error %q does not name the policy", err)
				}
			})
		}
		t.Run(tc.name+"/valid state round-trips", func(t *testing.T) {
			if err := pol.SnapshotLoad(valid); err != nil {
				t.Fatal(err)
			}
			again, err := pol.SnapshotSave()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, valid) {
				t.Fatalf("save after load differs:\ngot  %s\nwant %s", again, valid)
			}
		})
	}
}

// withCPU returns a copy of tracker records whose first record sits on
// cpu.
func withCPU(recs []map[string]any, cpu int) []map[string]any {
	out := make([]map[string]any, len(recs))
	copy(out, recs)
	first := make(map[string]any, len(recs[0]))
	for k, v := range recs[0] {
		first[k] = v
	}
	first["cpu"] = cpu
	out[0] = first
	return out
}
