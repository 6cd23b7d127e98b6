package env

import (
	"encoding/json"
	"strings"
	"testing"

	"ghost"
)

// SnapshotLoad marks Enqueued on exactly the threads the saved queue
// lists, and rejects a queue that lists a thread twice, which would let
// one round pop it twice.
func TestControlSnapshotLoadQueue(t *testing.T) {
	e, err := Open(Spec{
		Version: V1, CPUs: 4, Seed: 7,
		Quantum: 50 * ghost.Microsecond, Horizon: 20 * ghost.Millisecond,
		Workload: WorkloadSpec{
			Rate: 150_000, Workers: 16,
			Service: ServiceSpec{Dist: "exp", Mean: 15 * ghost.Microsecond},
		},
		SLO:          500 * ghost.Microsecond,
		AutoDispatch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 20; i++ {
		e.Step(nil)
	}
	p := e.cp
	want := map[ghost.TID]bool{}
	for tid, ts := range p.tr.Threads {
		want[tid] = ts.Enqueued
	}
	if len(p.queue) == 0 || len(p.queue) == len(want) {
		t.Fatalf("%d of %d threads queued; the reload checks too little", len(p.queue), len(want))
	}
	data, err := p.SnapshotSave()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SnapshotLoad(data); err != nil {
		t.Fatal(err)
	}
	for tid, ts := range p.tr.Threads {
		if ts.Enqueued != want[tid] {
			t.Errorf("T%d: Enqueued %v after the reload, want %v", tid, ts.Enqueued, want[tid])
		}
	}

	var cs controlSnap
	if err := json.Unmarshal(data, &cs); err != nil {
		t.Fatal(err)
	}
	cs.Queue = append(cs.Queue, cs.Queue[0])
	bad, err := json.Marshal(cs)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SnapshotLoad(bad); err == nil || !strings.Contains(err.Error(), "queued twice") {
		t.Fatalf("SnapshotLoad of a queue listing T%d twice: err = %v, want a queued-twice error", cs.Queue[0], err)
	}
}
