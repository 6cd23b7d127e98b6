package ghost_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"ghost"
)

// buildServing constructs the snapshot test scenario entirely from
// snapshot-capable pieces: an enclave with a centralized FIFO agent, a
// ghOSt-class worker pool fed by a Poisson source, and a spinner
// antagonist sharing the enclave.
func buildServing(opts ...ghost.MachineOption) *ghost.Machine {
	return buildServingWith(ghost.NewFIFOPolicy(), ghost.Global(), opts...)
}

// buildServingWith is buildServing with the given agent policy and mode.
func buildServingWith(policy any, mode ghost.AgentOption, opts ...ghost.MachineOption) *ghost.Machine {
	return buildServingAt(40_000, policy, mode, opts...)
}

// buildServingAt is buildServingWith with the Poisson source at rate
// requests per second.
func buildServingAt(rate float64, policy any, mode ghost.AgentOption, opts ...ghost.MachineOption) *ghost.Machine {
	return buildServingEnc(rate, policy, mode, nil, opts...)
}

// buildServingEnc is buildServingAt with the given enclave options.
func buildServingEnc(rate float64, policy any, mode ghost.AgentOption, encOpts []ghost.EnclaveOption, opts ...ghost.MachineOption) *ghost.Machine {
	m := ghost.NewMachine(ghost.XeonE5(), opts...)
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 2, 3), encOpts...)
	m.StartAgents(enc, policy, mode)
	pool := m.NewWorkerPool(3, &ghost.LatencyRecorder{}, func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name, Class: ghost.Ghost(enc)}, body)
	})
	m.AddSnapshotComponent("pool", pool)
	src := m.NewPoissonSource(ghost.NewRand(7), rate, ghost.ExponentialService(20*ghost.Microsecond),
		func(r *ghost.Request) { pool.Submit(r) })
	m.AddSnapshotComponent("src", src)
	m.SpawnSpinner(ghost.ThreadOpts{Name: "spin", Class: ghost.Ghost(enc)}, 15*ghost.Microsecond)
	return m
}

// servingRestoreOpts supplies the one closure a snapshot cannot carry:
// the Poisson source's sink, re-wired to the restored pool.
func servingRestoreOpts() []ghost.MachineOption {
	return []ghost.MachineOption{
		ghost.WithRestoredComponent("src", func(m *ghost.Machine) (ghost.SnapshotComponent, error) {
			pool, ok := m.SnapshotComponent("pool").(*ghost.WorkerPool)
			if !ok {
				return nil, errors.New("pool not restored before src")
			}
			return m.NewPoissonShell(func(r *ghost.Request) { pool.Submit(r) }), nil
		}),
	}
}

// digestAt snapshots m (which must be at a quiescent barrier) and
// returns its core digest.
func digestAt(t *testing.T, m *ghost.Machine) string {
	t.Helper()
	s, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return s.Digest()
}

// TestSnapshotRoundTripDeterminism is the restore-transparency gate:
// digest(run 0→T) == digest(restore(snap@t), run t→T) for snapshot
// points at the start, middle, and near the horizon. The snapshot is
// pushed through the wire codec on the way, so the byte format is part
// of the proof.
func TestSnapshotRoundTripDeterminism(t *testing.T) {
	const horizon = 4 * ghost.Millisecond
	ref := buildServing()
	ref.Run(horizon)
	want := digestAt(t, ref)
	ref.Shutdown()

	for _, tc := range []struct {
		name string
		at   ghost.Duration
	}{
		{"t0", 0},
		{"mid", horizon / 2},
		{"late", horizon - 200*ghost.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cand := buildServing()
			defer cand.Shutdown()
			if tc.at > 0 {
				cand.Run(tc.at)
			}
			s, err := cand.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot at %v: %v", tc.at, err)
			}

			// Round-trip through the serialized container.
			var buf bytes.Buffer
			if _, err := s.WriteTo(&buf); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			s2, err := ghost.ReadSnapshot(&buf)
			if err != nil {
				t.Fatalf("ReadSnapshot: %v", err)
			}
			if s2.Digest() != s.Digest() {
				t.Fatalf("digest changed across codec: %s != %s", s2.Digest(), s.Digest())
			}
			if s2.Time() != tc.at {
				t.Fatalf("snapshot time = %v, want %v", s2.Time(), tc.at)
			}

			restored, err := ghost.Restore(s2, servingRestoreOpts()...)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			defer restored.Shutdown()
			if restored.Now() != tc.at {
				t.Fatalf("restored Now = %v, want %v", restored.Now(), tc.at)
			}
			restored.RunUntil(horizon)
			if got := digestAt(t, restored); got != want {
				t.Fatalf("restore not transparent: digest %s, want %s", got, want)
			}
		})
	}
}

// A pool worker snapshotted while parked in Run finishes that Run and
// then completes the request its restored inbox slot holds, and the run
// continues byte-identically.
func TestSnapshotResumesPoolWorkerInRun(t *testing.T) {
	requireTransparentAt(t, 10*ghost.Microsecond, "a pool worker parked in Run", func(core map[string]any) bool {
		for _, th := range core["kernel"].(map[string]any)["threads"].([]any) {
			th := th.(map[string]any)
			body, _ := th["body"].(map[string]any)
			// curKind 1 is a thread parked in Run.
			if body != nil && body["kind"] == "workload.pool-worker" && th["curKind"] == 1.0 && th["pendingWork"].(float64) > 0 {
				return true
			}
		}
		return false
	})
}

// Restore builds every workload body as spawned, wherever it was parked:
// a pool worker in Block (TestSnapshotResumesPoolWorkerInRun has one in
// Run) and the spinner, which only ever parks in Run.
func TestSnapshotRestoresBodiesWhereParked(t *testing.T) {
	for _, tc := range []struct {
		kind    string
		curKind float64 // 1 is a thread parked in Run, 2 in Block
		what    string
	}{
		{"workload.pool-worker", 2, "a pool worker parked in Block"},
		{"workload.spinner", 1, "the spinner parked in Run"},
	} {
		t.Run(tc.what, func(t *testing.T) {
			requireTransparentAt(t, 10*ghost.Microsecond, tc.what, func(core map[string]any) bool {
				for _, th := range core["kernel"].(map[string]any)["threads"].([]any) {
					th := th.(map[string]any)
					body, _ := th["body"].(map[string]any)
					if body != nil && body["kind"] == tc.kind && th["curKind"] == tc.curKind {
						return true
					}
				}
				return false
			})
		})
	}
}

// servingSnap5ms is the digest of testdata/serving-5ms.snap, the
// buildServing machine at 5 ms as the tree that wrote both files saved
// it: the 4 ms file run on 1 ms in that tree.
const servingSnap5ms = "cacb0864d2e0ae18ccd431f83171c3e8361dfba2558185d35ad0a3bdc1fcf031"

// readSnapshotFile reads a snapshot file from testdata and returns its
// wire bytes and decoded container.
func readSnapshotFile(t *testing.T, name string) ([]byte, *ghost.Snapshot) {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ghost.ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadSnapshot(%s): %v", name, err)
	}
	return data, s
}

// dropRetiredFields deletes from an image's core JSON the fields that
// the encoding no longer carries: the never-drawn kernel random stream,
// the CPU and thread counters nothing read, CFS's five tunables (now
// Linux-default constants), the ghOSt class's never-read preemption
// counter, the never-charged message-delivery costs, the second copies
// of the tracer's counts (the ghOSt class's msgsPosted and txnsFailed,
// an agent set's msgDelivery histogram), the flags and
// counts restore rebuilds from the lists that imply them (CFS and
// MicroQuanta onRq and CFS rqCPU, ghOSt pendingMsgs, and the policy
// tracker's enqueued), the flags and latches a pending event implies (a
// CPU's burning, switching and reschedPending, the ghOSt class's
// inflight), and the second copies of a thread's CPU, the ghOSt
// sequence numbers (tseq, aseq), an agent set's mode and the per-CPU
// FIFO's home. The policy states must have been inlined
// (inlinePolicies).
func dropRetiredFields(core map[string]any) {
	kern := core["kernel"].(map[string]any)
	delete(kern, "rand")
	for _, k := range []string{"targetLatency", "minGranularity", "wakeupGran", "balancePeriod", "migrationCost"} {
		delete(kern["cfs"].(map[string]any), k)
	}
	for _, k := range []string{"MsgDeliveryLocal", "MsgDeliveryGlobal"} {
		delete(core["cost"].(map[string]any), k)
	}
	for _, k := range []string{"preemptions", "inflight", "msgsPosted", "txnsFailed"} {
		delete(core["ghost"].(map[string]any), k)
	}
	for _, c := range kern["cpus"].([]any) {
		for _, k := range []string{"busyNS", "busyStart", "switches", "burning", "switching", "reschedPending"} {
			delete(c.(map[string]any), k)
		}
	}
	for _, th := range kern["threads"].([]any) {
		th := th.(map[string]any)
		for _, k := range []string{"runnableAt", "schedDelay", "switchCount", "cpu"} {
			delete(th, k)
		}
		if cfs, ok := th["cfs"].(map[string]any); ok {
			delete(cfs, "onRq")
			delete(cfs, "rqCPU")
		}
		if mq, ok := th["mq"].(map[string]any); ok {
			delete(mq, "onRq")
		}
	}
	for _, e := range core["ghost"].(map[string]any)["enclaves"].([]any) {
		for _, th := range e.(map[string]any)["threads"].([]any) {
			delete(th.(map[string]any), "pendingMsgs")
			delete(th.(map[string]any), "tseq")
		}
		for _, a := range e.(map[string]any)["agents"].([]any) {
			delete(a.(map[string]any), "aseq")
		}
	}
	for _, set := range core["sets"].([]any) {
		delete(set.(map[string]any), "mode")
		delete(set.(map[string]any), "msgDelivery")
		st := set.(map[string]any)["policy"].(map[string]any)["data"].(map[string]any)
		delete(st, "home")
		recs, _ := st["tracker"].([]any)
		for _, rec := range recs {
			delete(rec.(map[string]any), "enqueued")
		}
	}
}

// inlinePolicies replaces each agent set's encoded policy state in an
// image's core JSON with the decoded JSON object, so its fields compare
// one by one.
func inlinePolicies(t *testing.T, core map[string]any) {
	t.Helper()
	for _, set := range core["sets"].([]any) {
		policy := set.(map[string]any)["policy"].(map[string]any)
		raw, err := base64.StdEncoding.DecodeString(policy["data"].(string))
		if err != nil {
			t.Fatalf("policy data: %v", err)
		}
		var st map[string]any
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("policy JSON: %v", err)
		}
		policy["data"] = st
	}
}

// dropTickerTable rewrites an image's core JSON from the form that kept
// periodic timers as keyed tickers to the form that keeps them as
// pre-bound events: the "tickers" table goes, and each "sim.ticker"
// event takes the kind its key names, at the same at and seq.
func dropTickerTable(t *testing.T, core map[string]any) {
	t.Helper()
	delete(core, "tickers")
	for _, ev := range core["events"].([]any) {
		ev := ev.(map[string]any)
		if ev["kind"] != "sim.ticker" {
			continue
		}
		key := ev["key"].(string)
		delete(ev, "key")
		var n int
		switch {
		case key == "cfs.balance":
			ev["kind"] = "kernel.cfs.balance"
		case strings.HasPrefix(key, "kernel.tick."):
			if _, err := fmt.Sscanf(key, "kernel.tick.%d", &n); err != nil {
				t.Fatalf("ticker key %q: %v", key, err)
			}
			ev["kind"] = "kernel.tick"
			if n != 0 {
				ev["ref"] = float64(n)
			}
		default:
			t.Fatalf("recorded image has unexpected ticker %q", key)
		}
	}
}

// A Version 3 snapshot file written by an earlier tree (buildServing at
// 4 ms) still restores, and the restored machine runs 1 ms on to the
// state that tree reached: the core JSON of the image it saved at 5 ms
// (testdata/serving-5ms.snap), less only the retired fields and
// with its periodic timers in their pre-bound event form.
func TestRestoreRecordedSnapshot(t *testing.T) {
	_, s := readSnapshotFile(t, "serving-4ms.snap")
	if s.Time() != 4*ghost.Millisecond {
		t.Fatalf("snapshot time = %v, want 4ms", s.Time())
	}
	endWire, end := readSnapshotFile(t, "serving-5ms.snap")
	if end.Digest() != servingSnap5ms || end.Time() != 5*ghost.Millisecond {
		t.Fatalf("serving-5ms.snap: digest %s at %v, want %s at 5ms", end.Digest(), end.Time(), servingSnap5ms)
	}
	restored, err := ghost.Restore(s, servingRestoreOpts()...)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer restored.Shutdown()
	restored.RunUntil(5 * ghost.Millisecond)
	snap, err := restored.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, want := snapshotCore(t, buf.Bytes()), snapshotCore(t, endWire)
	inlinePolicies(t, got)
	inlinePolicies(t, want)
	dropRetiredFields(want)
	dropTickerTable(t, want)
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("restored run's image has no %q", k)
		}
	}
	for k, v := range got {
		g, _ := json.Marshal(v)
		w, _ := json.Marshal(want[k])
		if !bytes.Equal(g, w) {
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			from := max(i-120, 0)
			t.Errorf("restored run's %q differs from serving-5ms.snap's at byte %d:\n…%.240s\nwant\n…%.240s", k, i, g[from:], w[from:])
		}
	}
}

// A global agent snapshotted mid-run while its step's cost is being
// charged resumes with the action that follows the cost (its runner's
// pending action) and the run continues byte-identically.
func TestSnapshotResumesAgentMidCost(t *testing.T) {
	requireTransparentAt(t, ghost.Microsecond, "the global agent charging a step after 500 µs", func(core map[string]any) bool {
		if core["now"].(float64) < float64(500*ghost.Microsecond) {
			return false
		}
		set := core["sets"].([]any)[0].(map[string]any)
		tids := map[float64]bool{}
		for _, r := range set["runners"].([]any) {
			if r := r.(map[string]any); r["pending"] != nil {
				tids[r["tid"].(float64)] = true
			}
		}
		for _, th := range core["kernel"].(map[string]any)["threads"].([]any) {
			th := th.(map[string]any)
			if tids[th["tid"].(float64)] && th["pendingWork"].(float64) > 0 {
				return true
			}
		}
		return false
	})
}

// A Shinjuku agent snapshotted while its repoll timer is pending adopts
// the restored timer as its one pending repoll. A restored set that did
// not would arm a second timer when it next asked for a repoll before
// the restored one fired, so its event count would run ahead of the
// uninterrupted run's. That takes an agent step inside the timer's
// window, which a loaded pool makes common but not certain, so the
// machine is snapshotted every 5 µs and every restored timer up to 2 ms
// is checked: each snapshot holding a new one is restored and run to
// 2 ms. Both machines run without the tracer's metrics, which a restore
// starts from zero, so their Metrics strings carry only the engine's
// restored event count and queue high-water mark.
func TestSnapshotAdoptsPendingRepoll(t *testing.T) {
	const horizon = 2 * ghost.Millisecond
	orig := buildServingAt(100_000, ghost.NewShinjukuPolicy(), ghost.Global(), ghost.WithoutMetrics())
	defer orig.Shutdown()
	var wires [][]byte
	last := -1.0 // seq of the newest repoll event collected
	for orig.Now() < horizon {
		orig.Run(5 * ghost.Microsecond)
		s, err := orig.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot at %v: %v", orig.Now(), err)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		for _, ev := range snapshotCore(t, buf.Bytes())["events"].([]any) {
			if ev := ev.(map[string]any); ev["kind"] == "agentsdk.repoll" && ev["seq"].(float64) != last {
				last = ev["seq"].(float64)
				wires = append(wires, buf.Bytes())
			}
		}
	}
	if len(wires) < 10 {
		t.Fatalf("%d snapshots up to %v hold a new pending repoll, want at least 10", len(wires), horizon)
	}
	want := orig.Metrics().String() + "digest " + digestAt(t, orig)
	for _, wire := range wires {
		s, err := ghost.ReadSnapshot(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("ReadSnapshot: %v", err)
		}
		restored, err := ghost.Restore(s, append(servingRestoreOpts(), ghost.WithoutMetrics())...)
		if err != nil {
			t.Fatalf("Restore at %v: %v", s.Time(), err)
		}
		restored.RunUntil(horizon)
		got := restored.Metrics().String() + "digest " + digestAt(t, restored)
		restored.Shutdown()
		if got != want {
			t.Fatalf("restore at %v not transparent:\n%s\nwant\n%s", s.Time(), got, want)
		}
	}
}

// buildWatched is the buildServing machine with a 20 ms enclave
// watchdog, which scans every 5 ms and never fires on it.
func buildWatched(opts ...ghost.MachineOption) *ghost.Machine {
	return buildServingEnc(40_000, ghost.NewFIFOPolicy(), ghost.Global(), []ghost.EnclaveOption{ghost.WithWatchdog(20 * ghost.Millisecond)}, opts...)
}

// A restored enclave adopts the watchdog scan its image holds as its
// one pending scan, so destroying the enclave cancels the scan as it
// does in the uninterrupted run. The machine is snapshotted at 2 ms,
// with the scan due at 5 ms, and both runs destroy the enclave at 3 ms
// and run on to 12 ms. A restored enclave that did not adopt the scan
// would leave it pending past the destroy, and its dispatch would put
// the restored run's event count ahead. A destroyed enclave is not
// snapshottable, so the digests are compared just before the destroy
// and the Metrics strings, which carry the event count, at the end.
func TestRestoreAdoptsWatchdog(t *testing.T) {
	orig := buildWatched(ghost.WithoutMetrics())
	defer orig.Shutdown()
	orig.Run(2 * ghost.Millisecond)
	s, err := orig.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var wire bytes.Buffer
	if _, err := s.WriteTo(&wire); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	watchdogEvent(t, snapshotCore(t, wire.Bytes()))
	s2, err := ghost.ReadSnapshot(&wire)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	restored, err := ghost.Restore(s2, append(servingRestoreOpts(), ghost.WithoutMetrics())...)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer restored.Shutdown()
	var got, want string
	for _, run := range []struct {
		m   *ghost.Machine
		out *string
	}{{orig, &want}, {restored, &got}} {
		run.m.RunUntil(3 * ghost.Millisecond)
		*run.out = "digest " + digestAt(t, run.m) + "\n"
		run.m.Ghost.Enclaves()[0].Destroy()
		run.m.RunUntil(12 * ghost.Millisecond)
		*run.out += run.m.Metrics().String()
	}
	if got != want {
		t.Fatalf("restored run with its enclave destroyed:\n%s\nwant\n%s", got, want)
	}
}

// An image that keeps its periodic timers in the form older trees wrote,
// as "sim.ticker" events named by ticker key beside a "tickers" table,
// restores to the same run as the image it was rewritten from; the
// table's periods, here all wrong, are ignored. The image
// is taken at 1 ms from a machine with CFS threads and an enclave
// watchdog, so ticks, the CFS balancer and a watchdog scan are pending.
func TestRestoreLegacyTickerEvents(t *testing.T) {
	m := buildWatched()
	m.SpawnSpinner(ghost.ThreadOpts{Name: "cfs-spin", Affinity: ghost.MaskOf(8)}, 15*ghost.Microsecond)
	wire := wireAt1ms(t, m)
	renamed := map[string]int{}
	legacy := resealSnapshot(t, wire, func(core map[string]any) {
		var tickers []any
		for _, ev := range core["events"].([]any) {
			ev := ev.(map[string]any)
			var key string
			switch ev["kind"] {
			case "kernel.tick":
				ref, _ := ev["ref"].(float64)
				key = fmt.Sprintf("kernel.tick.%d", int(ref))
				delete(ev, "ref")
			case "kernel.cfs.balance":
				key = "cfs.balance"
			case "ghost.watchdog":
				key = fmt.Sprintf("enclave.%d.watchdog", int(ev["args"].([]any)[0].(float64)))
				delete(ev, "args")
			default:
				continue
			}
			renamed[ev["kind"].(string)]++
			ev["kind"], ev["key"] = "sim.ticker", key
			tickers = append(tickers, map[string]any{"key": key, "period": 1})
		}
		core["tickers"] = tickers
	})
	if renamed["kernel.tick"] == 0 || renamed["kernel.cfs.balance"] != 1 || renamed["ghost.watchdog"] != 1 {
		t.Fatalf("rewrote %v; want ticks, the balancer and a watchdog scan", renamed)
	}
	want := restoredRun(t, wire, 12*ghost.Millisecond)
	if got := restoredRun(t, legacy, 12*ghost.Millisecond); got != want {
		t.Fatalf("legacy ticker events restored to a different run:\n%s\nwant\n%s", got, want)
	}
}

// requireTransparentAt runs buildServing in windows of step until a
// snapshot's core JSON satisfies want (giving up at 2 ms), restores that
// snapshot through the wire codec, and requires the restored machine's
// digest 1 ms later to match the original's.
func requireTransparentAt(t *testing.T, step ghost.Duration, what string, want func(core map[string]any) bool) {
	t.Helper()
	cand := buildServing()
	defer cand.Shutdown()
	var wire []byte
	for wire == nil && cand.Now() < 2*ghost.Millisecond {
		cand.Run(step)
		s, err := cand.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot at %v: %v", cand.Now(), err)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if want(snapshotCore(t, buf.Bytes())) {
			wire = buf.Bytes()
		}
	}
	if wire == nil {
		t.Fatalf("no snapshot with %s at any %v boundary up to 2 ms", what, step)
	}
	at := cand.Now()
	horizon := at + ghost.Millisecond

	s, err := ghost.ReadSnapshot(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	restored, err := ghost.Restore(s, servingRestoreOpts()...)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer restored.Shutdown()
	restored.RunUntil(horizon)
	cand.RunUntil(horizon)
	if got, want := digestAt(t, restored), digestAt(t, cand); got != want {
		t.Fatalf("restore at %v not transparent: digest %s, want %s", at, got, want)
	}
}

// TestSnapshotDecodeErrors: corrupt, truncated, and wrong-version
// containers surface typed errors, never panics.
func TestSnapshotDecodeErrors(t *testing.T) {
	m := buildServing()
	defer m.Shutdown()
	m.Run(ghost.Millisecond)
	s, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	good := buf.Bytes()

	check := func(name string, data []byte, want error) {
		t.Helper()
		_, err := ghost.ReadSnapshot(bytes.NewReader(data))
		if !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", name, err, want)
		}
	}

	check("empty", nil, ghost.ErrSnapshotCorrupt)
	check("truncated", good[:len(good)-7], ghost.ErrSnapshotCorrupt)
	check("short-header", good[:10], ghost.ErrSnapshotCorrupt)

	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	check("bad-magic", bad, ghost.ErrSnapshotCorrupt)

	bad = append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xff
	check("flipped-byte", bad, ghost.ErrSnapshotCorrupt)

	bad = append([]byte(nil), good...)
	bad[8] = 0x7f // version field, little-endian u32 after the magic
	check("wrong-version", bad, ghost.ErrSnapshotVersion)

	// A v1 container: magic, version 1, core and shard section lengths.
	v1 := append([]byte("ghostsnp"), 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0)
	v1 = append(v1, "{}{}"...)
	check("wrong-version/v1", v1, ghost.ErrSnapshotVersion)
}

// resealSnapshot decodes the core JSON of an encoded snapshot, applies
// mutate to it and re-encodes the container with a fresh length and
// checksum, so the mutated state gets past the codec's integrity checks.
func resealSnapshot(t *testing.T, enc []byte, mutate func(core map[string]any)) []byte {
	t.Helper()
	const hdr = 16 // magic, version, core length
	core := snapshotCore(t, enc)
	mutate(core)
	cj, err := json.Marshal(core)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), enc[:hdr]...)
	binary.LittleEndian.PutUint32(out[12:hdr], uint32(len(cj)))
	out = append(out, cj...)
	sum := sha256.Sum256(out[8:])
	return append(out, sum[:]...)
}

// snapshotCore decodes the core JSON of an encoded snapshot.
func snapshotCore(t *testing.T, enc []byte) map[string]any {
	t.Helper()
	const hdr = 16 // magic, version, core length
	n := binary.LittleEndian.Uint32(enc[12:hdr])
	var core map[string]any
	if err := json.Unmarshal(enc[hdr:hdr+int(n)], &core); err != nil {
		t.Fatalf("core JSON: %v", err)
	}
	return core
}

// servingWire returns the wire bytes of a buildServing snapshot taken
// at 1 ms.
func servingWire(t *testing.T) []byte {
	t.Helper()
	return wireAt1ms(t, buildServing())
}

// wireAt1ms runs m for 1 ms, shuts it down and returns the wire bytes of
// its snapshot.
func wireAt1ms(t *testing.T, m *ghost.Machine) []byte {
	t.Helper()
	defer m.Shutdown()
	m.Run(ghost.Millisecond)
	s, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// editComponent decodes the JSON data of the component stored under
// key, applies edit to it and re-encodes it in place.
func editComponent(t *testing.T, core map[string]any, key string, edit func(data map[string]any)) {
	t.Helper()
	for _, c := range core["components"].([]any) {
		if c := c.(map[string]any); c["key"] == key {
			raw, err := base64.StdEncoding.DecodeString(c["data"].(string))
			if err != nil {
				t.Fatalf("component %q data: %v", key, err)
			}
			var data map[string]any
			if err := json.Unmarshal(raw, &data); err != nil {
				t.Fatalf("component %q JSON: %v", key, err)
			}
			edit(data)
			if raw, err = json.Marshal(data); err != nil {
				t.Fatal(err)
			}
			c["data"] = base64.StdEncoding.EncodeToString(raw)
			return
		}
	}
	t.Fatalf("snapshot has no component %q", key)
}

// requireRestoreCorrupt restores a resealed snapshot and fails unless
// Restore returns ErrSnapshotCorrupt without panicking. An image Restore
// wrongly accepts is run for 1 ms, so a latent panic is reported as one.
func requireRestoreCorrupt(t *testing.T, data []byte) {
	t.Helper()
	s, err := ghost.ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadSnapshot of a resealed snapshot: %v", err)
	}
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("Restore panicked: %v", p)
		}
	}()
	restored, err := ghost.Restore(s, servingRestoreOpts()...)
	if err == nil {
		defer restored.Shutdown()
		restored.Run(ghost.Millisecond)
	}
	if !errors.Is(err, ghost.ErrSnapshotCorrupt) {
		t.Fatalf("Restore err = %v, want %v", err, ghost.ErrSnapshotCorrupt)
	}
}

// TestRestoreRejectsBadTopology: a checksummed snapshot whose topology
// NewTopology cannot build is rejected with ErrSnapshotCorrupt, never a
// panic.
func TestRestoreRejectsBadTopology(t *testing.T) {
	wire := servingWire(t)
	for _, tc := range []struct {
		name  string
		field string
		value int
	}{
		{"zero-sockets", "Sockets", 0},
		{"negative-ccxs", "CCXsPerSocket", -1},
		{"zero-cores", "CoresPerCCX", 0},
		{"smt-3", "SMTWidth", 3},
		{"smt-0", "SMTWidth", 0},
		{"320-cpus", "CoresPerCCX", 80}, // 2 sockets × 80 cores × 2 SMT
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireRestoreCorrupt(t, resealSnapshot(t, wire, func(core map[string]any) {
				core["topology"].(map[string]any)[tc.field] = tc.value
			}))
		})
	}
}

// TestRestoreRejectsBadIndices: a checksummed snapshot naming a CPU or
// TID outside the machine's tables is rejected with ErrSnapshotCorrupt,
// never a panic or an unbounded allocation.
func TestRestoreRejectsBadIndices(t *testing.T) {
	wire := servingWire(t)
	kernelRec := func(core map[string]any) map[string]any { return core["kernel"].(map[string]any) }
	ghostRec := func(core map[string]any) map[string]any { return core["ghost"].(map[string]any) }
	record := func(rec map[string]any, list string, i int) map[string]any {
		return rec[list].([]any)[i].(map[string]any)
	}
	firstTID := func(core map[string]any) any { return record(kernelRec(core), "threads", 0)["tid"] }
	spinnerTID := func(core map[string]any) any {
		for _, th := range kernelRec(core)["threads"].([]any) {
			if body, ok := th.(map[string]any)["body"].(map[string]any); ok && body["kind"] == "workload.spinner" {
				return th.(map[string]any)["tid"]
			}
		}
		t.Fatal("snapshot has no workload.spinner thread")
		return nil
	}
	// freeWorkerTID is the pool's first free worker.
	freeWorkerTID := func(pool map[string]any) any {
		free, _ := pool["free"].([]any)
		if len(free) == 0 {
			t.Fatal("snapshot's pool has no free worker")
		}
		return free[0]
	}
	// cpuWhere returns the first CPU record that satisfies ok.
	cpuWhere := func(core map[string]any, what string, ok func(c map[string]any) bool) map[string]any {
		for _, c := range kernelRec(core)["cpus"].([]any) {
			if c := c.(map[string]any); ok(c) {
				return c
			}
		}
		t.Fatalf("snapshot has no CPU that %s", what)
		return nil
	}
	idleCPU := func(c map[string]any) bool { return c["curr"] == 0.0 }
	busyCPU := func(c map[string]any) bool { return c["curr"] != 0.0 }
	threadRec := func(core map[string]any, tid any) map[string]any {
		for _, th := range kernelRec(core)["threads"].([]any) {
			if th := th.(map[string]any); th["tid"] == tid {
				return th
			}
		}
		t.Fatalf("snapshot has no thread T%v", tid)
		return nil
	}
	// eventOn reports whether an event of the given kind is pending on
	// CPU c.
	eventOn := func(core map[string]any, kind string, c map[string]any) bool {
		for _, ev := range core["events"].([]any) {
			if ev := ev.(map[string]any); ev["kind"] == kind && (ev["ref"] == c["id"] || ev["ref"] == nil && c["id"] == 0.0) {
				return true
			}
		}
		return false
	}
	for _, tc := range []struct {
		name   string
		mutate func(core map[string]any)
	}{
		{"cpu-id-high", func(core map[string]any) { record(kernelRec(core), "cpus", 1)["id"] = 1_000_000 }},
		{"cpu-id-negative", func(core map[string]any) { record(kernelRec(core), "cpus", 1)["id"] = -1 }},
		{"next-tid-huge", func(core map[string]any) { kernelRec(core)["nextTID"] = 1 << 40 }},
		{"next-tid-reused", func(core map[string]any) { kernelRec(core)["nextTID"] = 1 }},
		{"thread-tid-huge", func(core map[string]any) {
			threads := kernelRec(core)["threads"].([]any)
			threads[len(threads)-1].(map[string]any)["tid"] = 1 << 40
		}},
		{"ghost-slot-cpu-high", func(core map[string]any) {
			g := ghostRec(core)
			g["slots"] = append(g["slots"].([]any), firstTID(core))
		}},
		{"event-cpu-high", func(core map[string]any) {
			for _, ev := range core["events"].([]any) {
				if ev := ev.(map[string]any); ev["kind"] == "kernel.workdone" {
					ev["ref"] = 1_000_000
					return
				}
			}
			t.Fatal("snapshot has no pending kernel.workdone event")
		}},
		{"enclave-cpu-high", func(core map[string]any) {
			e := record(ghostRec(core), "enclaves", 0)
			e["cpus"] = append(e["cpus"].([]any), 1_000_000)
		}},
		{"tick-cpu-high", func(core map[string]any) {
			for _, ev := range core["events"].([]any) {
				if ev := ev.(map[string]any); ev["kind"] == "kernel.tick" {
					ev["ref"] = 1_000_000
					return
				}
			}
			t.Fatal("snapshot has no pending kernel.tick event")
		}},
		{"tick-twice", func(core map[string]any) {
			core["events"] = append(core["events"].([]any), pendingEvent(t, core, "kernel.tick"))
		}},
		{"tick-and-starttick", func(core map[string]any) {
			start := pendingEvent(t, core, "kernel.tick")
			start["kind"] = "kernel.starttick"
			core["events"] = append(core["events"].([]any), start)
		}},
		{"balance-twice", func(core map[string]any) {
			core["events"] = append(core["events"].([]any), pendingEvent(t, core, "kernel.cfs.balance"))
		}},
		{"workdone-twice", func(core map[string]any) {
			core["events"] = append(core["events"].([]any), pendingEvent(t, core, "kernel.workdone"))
		}},
		// A CPU burns or switches, never both: a completion restored after
		// a switch end on its CPU is refused, and so is the reverse.
		{"workdone-while-switching", func(core map[string]any) {
			end := pendingEvent(t, core, "kernel.workdone")
			end["kind"] = "kernel.switchdone"
			core["events"] = append([]any{end}, core["events"].([]any)...)
		}},
		{"switchdone-while-burning", func(core map[string]any) {
			end := pendingEvent(t, core, "kernel.workdone")
			end["kind"] = "kernel.switchdone"
			core["events"] = append(core["events"].([]any), end)
		}},
		// The engine draws each seq once.
		{"event-seq-twice", func(core map[string]any) {
			record(core, "events", 1)["seq"] = record(core, "events", 0)["seq"]
		}},
		// A completion is what says a CPU burns: its current thread must
		// have work left to burn.
		{"workdone-not-burning", func(core map[string]any) {
			c := cpuWhere(core, "has a completion pending", func(c map[string]any) bool { return eventOn(core, "kernel.workdone", c) })
			threadRec(core, c["curr"])["pendingWork"] = 0
		}},
		// A CPU's current thread is running, current there only, and
		// every running thread is current somewhere.
		{"curr-not-running", func(core map[string]any) {
			var worker any
			editComponent(t, core, "pool", func(pool map[string]any) { worker = freeWorkerTID(pool) })
			cpuWhere(core, "is idle", idleCPU)["curr"] = worker
		}},
		{"curr-twice", func(core map[string]any) {
			cpuWhere(core, "is idle", idleCPU)["curr"] = cpuWhere(core, "is busy", busyCPU)["curr"]
		}},
		{"running-on-no-cpu", func(core map[string]any) {
			cpuWhere(core, "runs a thread with no completion or switch end pending", func(c map[string]any) bool {
				return busyCPU(c) && !eventOn(core, "kernel.workdone", c) && !eventOn(core, "kernel.switchdone", c)
			})["curr"] = 0
		}},
		{"event-before-now", func(core map[string]any) { record(core, "events", 0)["at"] = 0 }},
		{"event-seq-above-counter", func(core map[string]any) { record(core, "events", 0)["seq"] = core["seq"] }},
		{"spinner-chunk-negative", func(core map[string]any) {
			for _, th := range kernelRec(core)["threads"].([]any) {
				if body, ok := th.(map[string]any)["body"].(map[string]any); ok && body["kind"] == "workload.spinner" {
					body["args"] = []any{-1}
					return
				}
			}
			t.Fatal("snapshot has no workload.spinner thread")
		}},
		{"pending-work-negative", func(core map[string]any) { record(kernelRec(core), "threads", 0)["pendingWork"] = -1 }},
		{"agent-loop-overhead-negative", func(core map[string]any) { core["cost"].(map[string]any)["AgentLoopOverhead"] = -1000 }},
		{"thread-curkind-exit", func(core map[string]any) { record(kernelRec(core), "threads", 0)["curKind"] = 4 }},
		{"runner-pending-run", func(core map[string]any) { record(record(core, "sets", 0), "runners", 0)["pending"] = 1 }},
		{"pool-free-foreign", func(core map[string]any) {
			tid := spinnerTID(core)
			editComponent(t, core, "pool", func(pool map[string]any) {
				free, _ := pool["free"].([]any)
				pool["free"] = append(free, tid)
			})
		}},
		{"pool-worker-twice", func(core map[string]any) {
			editComponent(t, core, "pool", func(pool map[string]any) {
				pool["free"] = append(pool["free"].([]any), freeWorkerTID(pool))
			})
		}},
		{"pool-worker-free-and-busy", func(core map[string]any) {
			editComponent(t, core, "pool", func(pool map[string]any) {
				inbox, _ := pool["inbox"].([]any)
				pool["inbox"] = append(inbox, map[string]any{"tid": freeWorkerTID(pool), "req": map[string]any{"id": 1 << 30}})
			})
		}},
		{"pool-busy-worker-dropped", func(core map[string]any) {
			editComponent(t, core, "pool", func(pool map[string]any) {
				if inbox, _ := pool["inbox"].([]any); len(inbox) == 0 {
					t.Fatal("snapshot's pool has no busy worker")
				}
				delete(pool, "inbox")
			})
		}},
		{"agent-global-cpu-high", func(core map[string]any) { record(core, "sets", 0)["globalCPU"] = 1000 }},
		{"agent-two-pending-repolls", func(core map[string]any) {
			first := record(core, "events", 0)
			for i := 0; i < 2; i++ {
				core["events"] = append(core["events"].([]any), map[string]any{
					"at": first["at"], "seq": freshSeq(t, core), "kind": "agentsdk.repoll", "ref": record(core, "sets", 0)["encID"],
				})
			}
		}},
		{"tracker-laststart-future", func(core map[string]any) {
			editPolicy(t, record(core, "sets", 0), func(st map[string]any) {
				record(st, "tracker", 0)["lastStart"] = core["now"].(float64) + 1
			})
		}},
		{"poisson-rate-zero", func(core map[string]any) {
			editComponent(t, core, "src", func(src map[string]any) { src["rate"] = 0 })
		}},
		{"poisson-service-negative", func(core map[string]any) {
			editComponent(t, core, "src", func(src map[string]any) {
				src["service"] = map[string]any{"kind": "fixed", "a": -20000}
			})
		}},
		{"poisson-bimodal-p-high", func(core map[string]any) {
			editComponent(t, core, "src", func(src map[string]any) {
				src["service"] = map[string]any{"kind": "bimodal", "a": 10000, "b": 10_000_000, "p": 2}
			})
		}},
		{"cfs-rq-extra", func(core map[string]any) {
			cfs := kernelRec(core)["cfs"].(map[string]any)
			cfs["rqs"] = append(cfs["rqs"].([]any), map[string]any{"minVrun": 0})
		}},
		{"cfs-idle-start-extra", func(core map[string]any) {
			cfs := kernelRec(core)["cfs"].(map[string]any)
			cfs["idleStart"] = append(cfs["idleStart"].([]any), 0)
		}},
		{"cfs-record-missing", func(core map[string]any) { delete(kernelRec(core), "cfs") }},
		{"mq-record-missing", func(core map[string]any) { delete(kernelRec(core), "mq") }},
		{"cfs-rq-foreign-thread", func(core map[string]any) {
			var worker any
			editComponent(t, core, "pool", func(pool map[string]any) { worker = freeWorkerTID(pool) })
			rq := record(kernelRec(core)["cfs"].(map[string]any), "rqs", 0)
			threads, _ := rq["threads"].([]any)
			rq["threads"] = append(threads, worker)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireRestoreCorrupt(t, resealSnapshot(t, wire, tc.mutate))
		})
	}

	// A run queue lists each thread of its class at most once, and only
	// one that can wait there: a runnable CFS thread, an unthrottled
	// runnable MicroQuanta thread.
	cfsWire := wireAt1ms(t, buildClassPool(ghost.CFS, ghost.MaskOf(0, 1, 24, 25), ghost.MaskOf(0), 8, 120_000))
	idleCFSWire := wireAt1ms(t, buildClassPool(ghost.CFS, ghost.MaskOf(0, 1, 24, 25), ghost.MaskOf(0), 8, 20_000))
	// Two CFS spinners share CPU 2 of the MicroQuanta machine, so one of
	// them is always a runnable thread of the other class.
	mq := buildClassPool(ghost.MicroQuanta, ghost.MaskOf(0, 1), ghost.MaskOf(0, 1), 4, 60_000)
	for i := 0; i < 2; i++ {
		mq.SpawnSpinner(ghost.ThreadOpts{Name: "cfs-spin", Affinity: ghost.MaskOf(2)}, 15*ghost.Microsecond)
	}
	mqWire := wireAt1ms(t, mq)
	runnableCFS := func(core map[string]any) any {
		for _, th := range kernelRec(core)["threads"].([]any) {
			if th := th.(map[string]any); th["class"] == "cfs" && th["state"] == float64(ghost.ThreadRunnable) {
				return th["tid"]
			}
		}
		t.Fatal("snapshot has no runnable CFS thread")
		return nil
	}
	// queuedCFS returns the record of a CFS run queue that lists a thread.
	queuedCFS := func(core map[string]any) map[string]any {
		for _, rq := range kernelRec(core)["cfs"].(map[string]any)["rqs"].([]any) {
			if th, _ := rq.(map[string]any)["threads"].([]any); len(th) > 0 {
				return rq.(map[string]any)
			}
		}
		t.Fatal("snapshot has no queued CFS thread")
		return nil
	}
	mqQueue := func(core map[string]any) map[string]any { return kernelRec(core)["mq"].(map[string]any) }
	for _, tc := range []struct {
		name   string
		wire   []byte
		mutate func(core map[string]any)
	}{
		{"cfs-rq-blocked-thread", idleCFSWire, func(core map[string]any) {
			var worker any
			editComponent(t, core, "pool", func(pool map[string]any) { worker = freeWorkerTID(pool) })
			rq := record(kernelRec(core)["cfs"].(map[string]any), "rqs", 1)
			threads, _ := rq["threads"].([]any)
			rq["threads"] = append(threads, worker)
		}},
		{"cfs-rq-tid-twice", cfsWire, func(core map[string]any) {
			rq := queuedCFS(core)
			threads := rq["threads"].([]any)
			rq["threads"] = append(threads, threads[0])
		}},
		{"cfs-rq-mq-thread", mqWire, func(core map[string]any) {
			q, _ := mqQueue(core)["queue"].([]any)
			if len(q) == 0 {
				t.Fatal("snapshot has no queued MicroQuanta thread")
			}
			rq := record(kernelRec(core)["cfs"].(map[string]any), "rqs", 0)
			threads, _ := rq["threads"].([]any)
			rq["threads"] = append(threads, q[0])
		}},
		{"mq-queue-foreign-thread", mqWire, func(core map[string]any) {
			q, _ := mqQueue(core)["queue"].([]any)
			mqQueue(core)["queue"] = append(q, runnableCFS(core))
		}},
		{"mq-throttle-twice", mqWire, func(core map[string]any) {
			core["events"] = append(core["events"].([]any), pendingEvent(t, core, "kernel.mq.throttle"))
		}},
		{"mq-queue-tid-twice", mqWire, func(core map[string]any) {
			q, _ := mqQueue(core)["queue"].([]any)
			if len(q) == 0 {
				t.Fatal("snapshot has no queued MicroQuanta thread")
			}
			mqQueue(core)["queue"] = append(q, q[0])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireRestoreCorrupt(t, resealSnapshot(t, tc.wire, tc.mutate))
		})
	}

	// A latch is installed (the slots list) or in flight (named by its
	// pending install alone). A CPU holds at most one, on a CPU of its
	// thread's enclave, and a thread at most one; an install latches only
	// a runnable thread of the enclave it names.
	inflight := wireWithInstall(t, buildServing())
	for _, tc := range []struct {
		name   string
		mutate func(core map[string]any, l installImage)
	}{
		{"latch-outside-enclave", func(core map[string]any, l installImage) {
			ghostRec(core)["slots"].([]any)[10] = l.unlatched
		}},
		{"latch-thread-twice", func(core map[string]any, l installImage) {
			ghostRec(core)["slots"].([]any)[l.freeCPU] = l.tid
		}},
		// The CPU of a pending install also holds an installed latch.
		{"latch-cpu-in-both-lists", func(core map[string]any, l installImage) {
			ghostRec(core)["slots"].([]any)[l.cpu] = l.unlatched
		}},
		// The install names a thread that is running or blocked, so no
		// commit of it can be in flight.
		{"install-not-in-flight", func(core map[string]any, l installImage) {
			for _, th := range kernelRec(core)["threads"].([]any) {
				if th := th.(map[string]any); th["class"] == "ghost" && th["state"] != float64(ghost.ThreadRunnable) {
					l.event["args"].([]any)[1] = th["tid"]
					return
				}
			}
			t.Fatal("snapshot has no ghOSt thread that is not runnable")
		}},
		{"install-twice", func(core map[string]any, l installImage) {
			dup := copyEvent(l.event)
			dup["seq"] = freshSeq(t, core)
			core["events"] = append(core["events"].([]any), dup)
		}},
		{"ghost-inflight-cpu-high", func(core map[string]any, l installImage) {
			l.event["args"].([]any)[2] = 1_000_000
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireRestoreCorrupt(t, resealSnapshot(t, inflight, func(core map[string]any) {
				tc.mutate(core, findInstall(t, core))
			}))
		})
	}
	// The install names the second enclave, not its thread's.
	twoEnclaves := buildServing()
	twoEnclaves.StartAgents(twoEnclaves.NewEnclave(ghost.MaskOf(4, 5, 6, 7)), ghost.NewFIFOPolicy(), ghost.Global())
	t.Run("install-foreign-enclave", func(t *testing.T) {
		requireRestoreCorrupt(t, resealSnapshot(t, wireWithInstall(t, twoEnclaves), func(core map[string]any) {
			args := findInstall(t, core).event["args"].([]any)
			args[0], args[4] = 1, -1
		}))
	})

	// An enclave keeps at most one watchdog scan pending, and only when
	// it has a watchdog.
	watched := wireAt1ms(t, buildServingEnc(40_000, ghost.NewFIFOPolicy(), ghost.Global(), []ghost.EnclaveOption{ghost.WithWatchdog(20 * ghost.Millisecond)}))
	for _, tc := range []struct {
		name   string
		mutate func(core map[string]any)
	}{
		{"watchdog-twice", func(core map[string]any) {
			core["events"] = append(core["events"].([]any), watchdogEvent(t, core))
		}},
		{"watchdog-without-timeout", func(core map[string]any) {
			watchdogEvent(t, core)
			delete(record(ghostRec(core), "enclaves", 0), "watchdogTimeout")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireRestoreCorrupt(t, resealSnapshot(t, watched, tc.mutate))
		})
	}

	// A per-CPU agent set places threads only on its runners' CPUs; the
	// enclave is CPUs 0-3 of a 48-CPU machine.
	perCPU := wireAt1ms(t, buildServingWith(ghost.NewPerCPUFIFOPolicy(), ghost.PerCPU()))
	t.Run("agent-thread-cpu-no-runner", func(t *testing.T) {
		requireRestoreCorrupt(t, resealSnapshot(t, perCPU, func(core map[string]any) {
			set := record(core, "sets", 0)
			pairs, _ := set["threadCPU"].([]any)
			if len(pairs) == 0 {
				t.Fatal("per-CPU snapshot places no threads")
			}
			pairs[0].([]any)[1] = 40
		}))
	})
	// The per-CPU FIFO's round-robin cursor and run queues must stay on
	// the enclave's CPUs.
	for _, tc := range []struct {
		name string
		edit func(st map[string]any)
	}{
		{"percpu-nextrr-negative", func(st map[string]any) { st["nextRR"] = -1 }},
		{"percpu-rq-cpu-foreign", func(st map[string]any) {
			rqs, _ := st["runQueues"].([]any)
			st["runQueues"] = append(rqs, map[string]any{"cpu": 40, "tids": []any{}})
		}},
		{"percpu-rq-cpu-twice", func(st map[string]any) { addRunQueues(t, st, []any{}, []any{}) }},
		{"percpu-rq-tid-twice", func(st map[string]any) {
			tid := record(st, "tracker", 0)["tid"]
			addRunQueues(t, st, []any{tid, tid})
		}},
		// A run queue's TIDs must name threads.
		{"percpu-rq-tid-foreign", func(st map[string]any) { addRunQueues(t, st, []any{1 << 40}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireRestoreCorrupt(t, resealSnapshot(t, perCPU, func(core map[string]any) {
				editPolicy(t, record(core, "sets", 0), tc.edit)
			}))
		})
	}

	// A centralized policy queues each thread at most once, across all of
	// its queues: CentralFIFO's bands and Shinjuku's fifo; and
	// CentralFIFO has one queue per band, at least one band.
	shinjuku := wireAt1ms(t, buildServingWith(ghost.NewShinjukuPolicy(), ghost.Global()))
	for _, tc := range []struct {
		name string
		wire []byte
		edit func(st map[string]any)
	}{
		{"central-band-tid-twice", wire, func(st map[string]any) {
			queues := st["queues"].([]any)
			tid := record(st, "tracker", 0)["tid"]
			queues[0] = []any{tid, tid}
		}},
		{"central-tid-in-two-bands", wire, func(st map[string]any) {
			tid := record(st, "tracker", 0)["tid"]
			st["numBands"], st["queues"] = 2, []any{[]any{tid}, []any{tid}}
		}},
		{"central-zero-bands", wire, func(st map[string]any) { st["numBands"], st["queues"] = 0, []any{} }},
		{"central-bands-queues-mismatch", wire, func(st map[string]any) { st["queues"] = []any{} }},
		{"shinjuku-fifo-tid-twice", shinjuku, func(st map[string]any) {
			tid := record(st, "tracker", 0)["tid"]
			st["fifo"] = []any{tid, tid}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireRestoreCorrupt(t, resealSnapshot(t, tc.wire, func(core map[string]any) {
				editPolicy(t, record(core, "sets", 0), tc.edit)
			}))
		})
	}
}

// watchdogEvent returns a copy of the pending ghost.watchdog event in an
// image's core JSON.
func watchdogEvent(t *testing.T, core map[string]any) map[string]any {
	t.Helper()
	return pendingEvent(t, core, "ghost.watchdog")
}

// pendingEvent returns a copy of the first pending event of the given
// kind in an image's core JSON, under a seq no pending event holds.
func pendingEvent(t *testing.T, core map[string]any, kind string) map[string]any {
	t.Helper()
	for _, ev := range core["events"].([]any) {
		if ev := ev.(map[string]any); ev["kind"] == kind {
			dup := copyEvent(ev)
			dup["seq"] = freshSeq(t, core)
			return dup
		}
	}
	t.Fatalf("snapshot has no pending %s event", kind)
	return nil
}

// freshSeq returns the highest seq below an image's counter that no
// pending event holds, so an event added under it breaks no rule but
// the one its case tests (two events never share a seq).
func freshSeq(t *testing.T, core map[string]any) float64 {
	t.Helper()
	held := map[float64]bool{}
	for _, ev := range core["events"].([]any) {
		held[ev.(map[string]any)["seq"].(float64)] = true
	}
	for seq := core["seq"].(float64) - 1; seq >= 0; seq-- {
		if !held[seq] {
			return seq
		}
	}
	t.Fatal("every seq below the counter is pending")
	return 0
}

// copyEvent returns a copy of an event record, its args included.
func copyEvent(ev map[string]any) map[string]any {
	dup := map[string]any{}
	for k, v := range ev {
		dup[k] = v
	}
	if args, ok := ev["args"].([]any); ok {
		dup["args"] = append([]any(nil), args...)
	}
	return dup
}

// wireWithInstall returns the wire bytes of a snapshot of m taken at
// the first microsecond boundary after 1 ms with a ghost.install event
// pending on its first enclave.
func wireWithInstall(t *testing.T, m *ghost.Machine) []byte {
	t.Helper()
	defer m.Shutdown()
	m.Run(ghost.Millisecond)
	for i := 0; i < 1000; i++ {
		if !m.Ghost.Enclaves()[0].Held().Empty() {
			s, err := m.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			var buf bytes.Buffer
			if _, err := s.WriteTo(&buf); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			for _, ev := range snapshotCore(t, buf.Bytes())["events"].([]any) {
				if ev.(map[string]any)["kind"] == "ghost.install" {
					return buf.Bytes()
				}
			}
		}
		m.Run(ghost.Microsecond)
	}
	t.Fatal("no install pending at any snapshot point")
	return nil
}

// latchedCPUs returns the TID each CPU's latch holds, installed or in
// flight, 0 for none, and the set of latched TIDs, in an image's core
// JSON.
func latchedCPUs(core map[string]any) ([]float64, map[float64]bool) {
	var slots []float64
	for _, tid := range core["ghost"].(map[string]any)["slots"].([]any) {
		slots = append(slots, tid.(float64))
	}
	for _, ev := range core["events"].([]any) {
		if ev := ev.(map[string]any); ev["kind"] == "ghost.install" {
			args := ev["args"].([]any)
			slots[int(args[2].(float64))] = args[1].(float64)
		}
	}
	latched := map[float64]bool{}
	for _, tid := range slots {
		latched[tid] = true
	}
	return slots, latched
}

// installImage locates a pending install in an image's core JSON.
type installImage struct {
	event     map[string]any // the ghost.install event record
	tid       any            // its thread, latched in flight on cpu
	cpu       int
	freeCPU   int // an enclave CPU that holds no latch
	unlatched any // a ghOSt thread that holds no latch
}

// findInstall returns the first pending install of an image whose
// enclave is CPUs 0-3.
func findInstall(t *testing.T, core map[string]any) installImage {
	t.Helper()
	var l installImage
	for _, ev := range core["events"].([]any) {
		if ev := ev.(map[string]any); ev["kind"] == "ghost.install" {
			args := ev["args"].([]any)
			l.event, l.tid, l.cpu = ev, args[1], int(args[2].(float64))
			break
		}
	}
	if l.event == nil {
		t.Fatal("snapshot has no pending ghost.install event")
	}
	g := core["ghost"].(map[string]any)
	slots, latched := latchedCPUs(core)
	l.freeCPU = -1
	for cpu := 0; cpu < 4 && l.freeCPU < 0; cpu++ {
		if slots[cpu] == 0 {
			l.freeCPU = cpu
		}
	}
	for _, tr := range g["enclaves"].([]any)[0].(map[string]any)["threads"].([]any) {
		if tid := tr.(map[string]any)["tid"].(float64); !latched[tid] {
			l.unlatched = tid
			break
		}
	}
	if l.freeCPU < 0 || l.unlatched == nil {
		t.Fatalf("snapshot has no free enclave CPU (%d) or no unlatched thread (%v)", l.freeCPU, l.unlatched)
	}
	return l
}

// addRunQueues appends one run-queue record per TID list to a per-CPU
// FIFO policy state, all on the first enclave CPU (0-3) that no record
// names yet.
func addRunQueues(t *testing.T, st map[string]any, tidLists ...[]any) {
	t.Helper()
	rqs, _ := st["runQueues"].([]any)
	used := map[float64]bool{}
	for _, rq := range rqs {
		used[rq.(map[string]any)["cpu"].(float64)] = true
	}
	for cpu := 0.0; cpu < 4; cpu++ {
		if !used[cpu] {
			for _, tids := range tidLists {
				rqs = append(rqs, map[string]any{"cpu": cpu, "tids": tids})
			}
			st["runQueues"] = rqs
			return
		}
	}
	t.Fatal("per-CPU snapshot has a run queue on every enclave CPU")
}

// editPolicy decodes the JSON state of an agent set's policy, applies
// edit to it and re-encodes it in place.
func editPolicy(t *testing.T, set map[string]any, edit func(st map[string]any)) {
	t.Helper()
	policy := set["policy"].(map[string]any)
	raw, err := base64.StdEncoding.DecodeString(policy["data"].(string))
	if err != nil {
		t.Fatalf("policy data: %v", err)
	}
	var st map[string]any
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("policy JSON: %v", err)
	}
	edit(st)
	if raw, err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	policy["data"] = base64.StdEncoding.EncodeToString(raw)
}

// Restore reads no second copy of a fact: values under the retired keys
// are ignored, so an image that sets them against the list, event or
// record that now holds the fact, as an image from an older tree may,
// restores to the same run as the image without them. The keys are
// flags a list implies (a tracker's enqueued, a CFS or MicroQuanta
// thread's onRq and CFS rqCPU, a ghOSt thread's latched), flags a
// pending event implies (a CPU's burning, switching and reschedPending,
// the class's inflight latches), a thread's cpu (its CPU record's
// curr), a ghOSt thread's tseq and an agent's aseq (their status words'
// seq), an agent set's mode (its policy's type) and the per-CPU FIFO's
// home (the CPU that hears each message).
func TestRestoreIgnoresRetiredKeys(t *testing.T) {
	kernelRec := func(core map[string]any) map[string]any { return core["kernel"].(map[string]any) }
	enclaveRec := func(core map[string]any) map[string]any {
		return core["ghost"].(map[string]any)["enclaves"].([]any)[0].(map[string]any)
	}
	// staleCPUFlag sets key on every CPU that holds no pending event of
	// kind, the event that now says the flag is set.
	staleCPUFlag := func(key, kind string) func(core map[string]any) int {
		return func(core map[string]any) int {
			held := map[float64]bool{}
			for _, ev := range core["events"].([]any) {
				if ev := ev.(map[string]any); ev["kind"] == kind {
					ref, _ := ev["ref"].(float64)
					held[ref] = true
				}
			}
			n := 0
			for _, c := range kernelRec(core)["cpus"].([]any) {
				if c := c.(map[string]any); !held[c["id"].(float64)] {
					c[key] = true
					n++
				}
			}
			return n
		}
	}
	// staleSeq sets key to its status word's seq plus 7 on each record.
	staleSeq := func(key string, recs []any) int {
		for _, rec := range recs {
			rec := rec.(map[string]any)
			rec[key] = rec["sw"].(map[string]any)["Seq"].(float64) + 7
		}
		return len(recs)
	}
	serving := func() *ghost.Machine { return buildServing() }
	perCPU := func() *ghost.Machine { return buildServingWith(ghost.NewPerCPUFIFOPolicy(), ghost.PerCPU()) }
	for _, tc := range []struct {
		name  string
		build func() *ghost.Machine
		// edit sets stale values under retired keys and returns how many
		// records it set.
		edit func(core map[string]any) int
	}{
		{"shinjuku-enqueued", func() *ghost.Machine {
			return buildServingAt(100_000, ghost.NewShinjukuPolicy(), ghost.Global())
		}, func(core map[string]any) int {
			n := 0
			editPolicy(t, core["sets"].([]any)[0].(map[string]any), func(st map[string]any) {
				queued := map[float64]bool{}
				fifo, _ := st["fifo"].([]any)
				for _, tid := range fifo {
					queued[tid.(float64)] = true
				}
				for _, rec := range st["tracker"].([]any) {
					if rec := rec.(map[string]any); !queued[rec["tid"].(float64)] {
						rec["enqueued"] = true
						n++
					}
				}
			})
			return n
		}},
		{"cfs-onRq", func() *ghost.Machine {
			return buildClassPool(ghost.CFS, ghost.MaskOf(0, 1, 24, 25), ghost.MaskOf(0), 8, 120_000)
		}, func(core map[string]any) int {
			kern := core["kernel"].(map[string]any)
			queued := map[float64]bool{}
			for _, rq := range kern["cfs"].(map[string]any)["rqs"].([]any) {
				threads, _ := rq.(map[string]any)["threads"].([]any)
				for _, tid := range threads {
					queued[tid.(float64)] = true
				}
			}
			return setUnlisted(kern, "cfs", queued, map[string]any{"onRq": true, "rqCPU": 1})
		}},
		{"mq-onRq", func() *ghost.Machine {
			return buildClassPool(ghost.MicroQuanta, ghost.MaskOf(0, 1), ghost.MaskOf(0, 1), 4, 60_000)
		}, func(core map[string]any) int {
			kern := core["kernel"].(map[string]any)
			queued := map[float64]bool{}
			q, _ := kern["mq"].(map[string]any)["queue"].([]any)
			for _, tid := range q {
				queued[tid.(float64)] = true
			}
			return setUnlisted(kern, "mq", queued, map[string]any{"onRq": true})
		}},
		{"ghost-latched", serving, func(core map[string]any) int {
			g := core["ghost"].(map[string]any)
			_, latched := latchedCPUs(core)
			n := 0
			for _, tr := range g["enclaves"].([]any)[0].(map[string]any)["threads"].([]any) {
				if tr := tr.(map[string]any); !latched[tr["tid"].(float64)] {
					tr["latched"] = true
					n++
				}
			}
			return n
		}},
		{"cpu-burning", serving, staleCPUFlag("burning", "kernel.workdone")},
		{"cpu-switching", serving, staleCPUFlag("switching", "kernel.switchdone")},
		{"cpu-reschedPending", serving, staleCPUFlag("reschedPending", "kernel.resched")},
		{"thread-cpu", serving, func(core map[string]any) int {
			// Every thread claims the last CPU, which runs none of them.
			cpus := kernelRec(core)["cpus"].([]any)
			last := cpus[len(cpus)-1].(map[string]any)
			if last["curr"] != 0.0 {
				t.Fatalf("cpu%v is not idle", last["id"])
			}
			threads := kernelRec(core)["threads"].([]any)
			for _, th := range threads {
				th.(map[string]any)["cpu"] = last["id"]
			}
			return len(threads)
		}},
		{"ghost-inflight", serving, func(core map[string]any) int {
			// Each enclave CPU claims an in-flight latch of a thread that
			// holds none.
			g := core["ghost"].(map[string]any)
			_, latched := latchedCPUs(core)
			inflight := make([]any, len(g["slots"].([]any)))
			for i := range inflight {
				inflight[i] = 0
			}
			for _, tr := range enclaveRec(core)["threads"].([]any) {
				if tid := tr.(map[string]any)["tid"]; !latched[tid.(float64)] {
					for cpu := 0; cpu < 4; cpu++ {
						inflight[cpu] = tid
					}
					g["inflight"] = inflight
					return 4
				}
			}
			return 0
		}},
		{"ghost-tseq", serving, func(core map[string]any) int {
			return staleSeq("tseq", enclaveRec(core)["threads"].([]any))
		}},
		{"ghost-aseq", serving, func(core map[string]any) int {
			return staleSeq("aseq", enclaveRec(core)["agents"].([]any))
		}},
		{"set-msgDelivery", serving, func(core map[string]any) int {
			sets := core["sets"].([]any)
			for _, set := range sets {
				set.(map[string]any)["msgDelivery"] = map[string]any{
					"idx": []any{40}, "n": []any{3}, "total": 3, "sum": 3e6, "min": 1e6, "max": 1e6,
				}
			}
			return len(sets)
		}},
		{"ghost-msgsPosted", serving, func(core map[string]any) int {
			core["ghost"].(map[string]any)["msgsPosted"] = 1e6
			return 1
		}},
		{"ghost-txnsFailed", serving, func(core map[string]any) int {
			core["ghost"].(map[string]any)["txnsFailed"] = 1e6
			return 1
		}},
		{"set-mode", serving, func(core map[string]any) int {
			// The global FIFO set claims the per-CPU model.
			sets := core["sets"].([]any)
			for _, set := range sets {
				set.(map[string]any)["mode"] = "percpu"
			}
			return len(sets)
		}},
		{"percpu-home", perCPU, func(core map[string]any) int {
			// Every tracked thread is homed on CPU 3, and a TID that names
			// no thread on a CPU outside the enclave.
			n := 0
			editPolicy(t, core["sets"].([]any)[0].(map[string]any), func(st map[string]any) {
				home := []any{[]any{1 << 40, 40}}
				for _, rec := range st["tracker"].([]any) {
					home = append(home, []any{rec.(map[string]any)["tid"], 3})
				}
				st["home"], n = home, len(home)
			})
			return n
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := wireAt1ms(t, tc.build())
			n := 0
			stale := resealSnapshot(t, wire, func(core map[string]any) { n = tc.edit(core) })
			if n == 0 {
				t.Fatal("the image has no record to mark")
			}
			want := restoredRun(t, wire, 5*ghost.Millisecond)
			if got := restoredRun(t, stale, 5*ghost.Millisecond); got != want {
				t.Fatalf("retired keys on %d records changed the restored run:\n%s\nwant\n%s", n, got, want)
			}
		})
	}
}

// setUnlisted sets keys in the class record (key cls) of every thread
// that has one and whose TID is not in listed, and returns how many
// records it set.
func setUnlisted(kern map[string]any, cls string, listed map[float64]bool, keys map[string]any) int {
	n := 0
	for _, th := range kern["threads"].([]any) {
		th := th.(map[string]any)
		rec, ok := th[cls].(map[string]any)
		if !ok || listed[th["tid"].(float64)] {
			continue
		}
		for k, v := range keys {
			rec[k] = v
		}
		n++
	}
	return n
}

// restoredRun restores the snapshot in wire without the tracer's
// metrics, runs it to horizon and returns its Metrics string and digest.
func restoredRun(t *testing.T, wire []byte, horizon ghost.Time) string {
	t.Helper()
	s, err := ghost.ReadSnapshot(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	m, err := ghost.Restore(s, append(servingRestoreOpts(), ghost.WithoutMetrics())...)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer m.Shutdown()
	m.RunUntil(horizon)
	return m.Metrics().String() + "digest " + digestAt(t, m)
}

// TestSnapshotDecodeBounded: a header claiming a 1 GiB section, followed
// by only 100 bytes, is rejected as corrupt without allocating anywhere
// near the claimed length.
func TestSnapshotDecodeBounded(t *testing.T) {
	data := append([]byte("ghostsnp"), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(data[8:], uint32(ghost.SnapshotVersion))
	binary.LittleEndian.PutUint32(data[12:], 1<<30)
	data = append(data, make([]byte, 100)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ghost.ReadSnapshot(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ghost.ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want %v", err, ghost.ErrSnapshotCorrupt)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("decode allocated %d bytes for a 100-byte body", d)
	}
}

// A snapshot taken while an enclave's upgrade-attach deadline is armed
// fails: an upgrade in flight, deadline included, is outside the
// snapshot envelope.
func TestSnapshotRefusesPendingUpgradeDeadline(t *testing.T) {
	m := ghost.NewMachine(ghost.XeonE5())
	defer m.Shutdown()
	enc := m.NewEnclave(ghost.MaskOf(0, 1))
	m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())
	m.Run(ghost.Millisecond)
	if _, err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot before the upgrade: %v", err)
	}
	enc.BeginUpgrade()
	if _, err := m.Snapshot(); err == nil || !strings.Contains(err.Error(), "upgrade in flight") {
		t.Fatalf("Snapshot with an armed upgrade deadline: err = %v, want an upgrade-in-flight refusal", err)
	}
}

// A Machine.After closure has no owner to name its pending firing, so
// a machine with one is refused, and the refusal names it a plain
// closure.
func TestSnapshotRefusesAfterClosure(t *testing.T) {
	m := ghost.NewMachine(ghost.XeonE5())
	defer m.Shutdown()
	m.After(ghost.Millisecond, func() {})
	if _, err := m.Snapshot(); err == nil || !strings.Contains(err.Error(), "plain closure") {
		t.Fatalf("Snapshot with a pending Machine.After closure: err = %v, want a refusal naming a plain closure", err)
	}
}

// BenchmarkSnapshotRoundTrip measures the checkpoint cycle on a warmed
// serving machine: Snapshot (quiescent-barrier walk), Encode to the wire
// format, Decode, and Restore into a runnable machine. snap-bytes
// reports the encoded checkpoint size.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	m := ghost.NewMachine(ghost.XeonE5())
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 2, 3))
	m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())
	pool := m.NewWorkerPool(3, &ghost.LatencyRecorder{}, func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name, Class: ghost.Ghost(enc)}, body)
	})
	m.AddSnapshotComponent("pool", pool)
	src := m.NewPoissonSource(ghost.NewRand(7), 40_000, ghost.ExponentialService(20*ghost.Microsecond),
		func(r *ghost.Request) { pool.Submit(r) })
	m.AddSnapshotComponent("src", src)
	m.Run(10 * ghost.Millisecond)
	defer m.Shutdown()

	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := m.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		if _, err := s.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		r, err := ghost.ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		rm, err := ghost.Restore(r, servingRestoreOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		rm.Shutdown()
	}
	b.ReportMetric(float64(buf.Len()), "snap-bytes")
}
