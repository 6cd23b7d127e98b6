package policies

import (
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// SnapshotLoad marks Enqueued on exactly the threads the saved queues
// list: a centralized policy reloaded from its own live state has the
// flags it had before.
func TestSnapshotLoadDerivesEnqueued(t *testing.T) {
	shinjuku, central := NewShinjuku(), NewCentralFIFO()
	for _, tc := range []struct {
		name string
		pol  interface {
			agentsdk.GlobalPolicy
			SnapshotSave() ([]byte, error)
			SnapshotLoad([]byte) error
		}
		tr **Tracker // set by Attach
	}{
		{"shinjuku", shinjuku, &shinjuku.tr},
		{"central-fifo", central, &central.tr},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runLive(t, tc.pol, func(sim.Time) {})
			tr := *tc.tr
			want := map[kernel.TID]bool{}
			queued := 0
			for tid, ts := range tr.Threads {
				want[tid] = ts.Enqueued
				if ts.Enqueued {
					queued++
				}
			}
			if queued == 0 || queued == len(want) {
				t.Fatalf("%d of %d threads queued; the reload checks too little", queued, len(want))
			}
			data, err := tc.pol.SnapshotSave()
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.pol.SnapshotLoad(data); err != nil {
				t.Fatal(err)
			}
			for tid, ts := range tr.Threads {
				if ts.Enqueued != want[tid] {
					t.Errorf("T%d: Enqueued %v after the reload, want %v", tid, ts.Enqueued, want[tid])
				}
			}
		})
	}
}
