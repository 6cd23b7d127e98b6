package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ghost"
	"ghost/internal/ghostcore"
	"ghost/internal/kernel"
)

// tinyTopo is the 4-CPU single-CCX machine every trace golden runs on.
func tinyTopo() *ghost.Topology {
	return ghost.NewTopology(ghost.TopologyConfig{
		Name: "tiny", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 4, SMTWidth: 1,
	})
}

// traceBytes exports m's trace.
func traceBytes(t *testing.T, m *ghost.Machine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.TraceTo(&buf); err != nil {
		t.Fatalf("TraceTo: %v", err)
	}
	return buf.Bytes()
}

// perCPUScenario runs the per-CPU FIFO policy on CPUs 1-3 beside a CFS
// thread pinned to CPU 2, under a plan that slows the agents, duplicates
// messages, forces an upgrade the set has no policy for, and finally
// crashes the agents, so the enclave falls back to CFS. It pins local
// commits and steps, preemptions and the agent-side fault kinds.
func perCPUScenario(t *testing.T) []byte {
	t.Helper()
	plan := ghost.NewFaultPlan(11)
	plan.Slow(300*ghost.Microsecond, 300*ghost.Microsecond, 3)
	plan.DupMsgs(700*ghost.Microsecond, 200*ghost.Microsecond, 0.5)
	plan.Upgrade(ghost.Time(ghost.Millisecond))
	plan.Crash(1300 * ghost.Microsecond)
	m := ghost.NewMachine(tinyTopo(), ghost.WithTrace(ghost.NewTracer()), ghost.WithFaults(plan))
	defer m.Shutdown()

	enc := m.NewEnclave(ghost.MaskOf(1, 2, 3))
	m.StartAgents(enc, ghost.NewPerCPUFIFOPolicy(), ghost.PerCPU())
	worker := func(tc *ghost.Task) {
		for i := 0; i < 40; i++ {
			tc.Run(5 * ghost.Microsecond)
			tc.Sleep(20 * ghost.Microsecond)
		}
	}
	for i := 0; i < 3; i++ {
		m.Spawn(ghost.ThreadOpts{Name: "gw", Class: ghost.Ghost(enc)}, worker)
	}
	m.Spawn(ghost.ThreadOpts{Name: "cfs", Affinity: ghost.MaskOf(2)}, func(tc *ghost.Task) {
		for i := 0; i < 60; i++ {
			tc.Run(2 * ghost.Microsecond)
			tc.Sleep(30 * ghost.Microsecond)
		}
	})
	m.Run(1500 * ghost.Microsecond)
	return traceBytes(t, m)
}

// firstRunnable is a BPF program that latches the lowest-TID runnable
// thread of its enclave that may run on the idle CPU.
type firstRunnable struct{ enc *ghost.Enclave }

func (p firstRunnable) PickNextOnIdle(cpu ghost.CPUID) *ghost.Thread {
	for _, t := range p.enc.RunnableThreads() {
		if t.Affinity().Has(cpu) {
			return t
		}
	}
	return nil
}

// protocolScenario drives an enclave on CPUs 1-3 by hand, with no agent
// SDK: a raw agent attached on CPU 1 commits local, remote, stale,
// recalled and atomic transactions, a BPF program runs for a while, an
// upgrade begins and times out, and a watchdog finally destroys the
// enclave. A fault plan loses one IPI and fires a crash that finds no
// agent to kill. It pins the protocol's failure paths.
func protocolScenario(t *testing.T) []byte {
	t.Helper()
	us := ghost.Microsecond
	plan := ghost.NewFaultPlan(5)
	plan.LoseIPIs(300*us, 50*us, 1)
	plan.Crash(400 * us)
	plan.DelayIPIs(500*us, 50*us, 10*us)
	plan.FailTxns(600*us, 50*us, 1)
	plan.DelayMsgs(700*us, 50*us, 10*us)
	m := ghost.NewMachine(tinyTopo(), ghost.WithTrace(ghost.NewTracer()), ghost.WithFaults(plan))
	defer m.Shutdown()

	enc := m.NewEnclave(ghost.MaskOf(1, 2, 3))
	agent := m.Kernel().Spawn(kernel.SpawnOpts{Name: "agent", Class: m.Agents, Affinity: ghost.MaskOf(1)},
		func(tc *ghost.Task) {
			for {
				tc.Block()
			}
		})
	a := enc.AttachAgent(1, agent)
	enc.ConfigQueueWakeup(enc.DefaultQueue(), a, false)
	worker := func(tc *ghost.Task) {
		for {
			tc.Run(20 * us)
			tc.Block()
		}
	}
	var w []*ghost.Thread
	for i := 0; i < 4; i++ {
		w = append(w, m.Spawn(ghost.ThreadOpts{Name: fmt.Sprintf("w%d", i), Class: ghost.Ghost(enc)}, worker))
	}
	commit := func(a *ghostcore.Agent, th *ghost.Thread, cpu ghost.CPUID, edit func(*ghostcore.Txn)) *ghostcore.Txn {
		txn := enc.TxnCreate(th.TID(), cpu)
		if edit != nil {
			edit(txn)
		}
		enc.TxnsCommit(a, []*ghostcore.Txn{txn})
		return txn
	}
	at := func(d ghost.Duration, fn func()) { m.After(d, fn) }

	at(10*us, func() {
		commit(nil, w[0], 2, nil)
		commit(a, w[1], 1, func(x *ghostcore.Txn) { x.AgentSeq = a.Seq() })
	})
	at(20*us, func() {
		commit(a, w[2], 3, func(x *ghostcore.Txn) { x.AgentSeq = 1 })
		commit(nil, w[2], 3, func(x *ghostcore.Txn) { x.ThreadSeq = enc.ThreadSeq(w[2]) - 1 })
	})
	at(30*us, func() {
		txn := commit(nil, w[2], 3, nil)
		enc.TxnsRecall([]*ghostcore.Txn{txn})
	})
	at(40*us, func() {
		enc.TxnsCommitAtomic(nil, []*ghostcore.Txn{enc.TxnCreate(w[2].TID(), 3), enc.TxnCreate(w[3].TID(), 2)})
	})
	at(60*us, func() { enc.PreemptCPU(3) })
	at(70*us, func() {
		enc.TxnsCommitAtomic(nil, []*ghostcore.Txn{enc.TxnCreate(w[2].TID(), 3), enc.TxnCreate(9999, 2)})
		enc.TxnsCommit(nil, []*ghostcore.Txn{enc.TxnCreate(w[2].TID(), 3), enc.TxnCreate(w[1].TID(), 2)})
	})
	at(100*us, func() {
		for _, th := range w {
			m.Wake(th)
		}
		enc.SetBPF(firstRunnable{enc})
	})
	at(150*us, func() {
		enc.SetBPF(nil)
		enc.BeginUpgrade()
	})
	at(200*us, func() {
		enc.EnableWatchdog(60 * ghost.Millisecond)
		m.Spawn(ghost.ThreadOpts{Name: "starved", Class: ghost.Ghost(enc)}, worker)
	})
	// Wake the workers and commit the runnable ones, in each fault
	// window in turn: lost IPIs, delayed IPIs, failed commits and
	// delayed wakeup messages.
	for _, d := range []ghost.Duration{320 * us, 520 * us, 620 * us, 720 * us} {
		at(d, func() {
			for _, th := range w {
				m.Wake(th)
			}
			for i, th := range w {
				if th.State() == ghost.ThreadRunnable {
					commit(nil, th, ghost.CPUID(1+i%3), nil)
				}
			}
		})
	}
	m.Run(80 * ghost.Millisecond)
	return traceBytes(t, m)
}

// kindGoldens are the extra goldens: each scenario, and its file.
var kindGoldens = []struct {
	file string
	run  func(*testing.T) []byte
}{
	{"percpu_faults.json", perCPUScenario},
	{"protocol.json", protocolScenario},
}

func TestKindGoldens(t *testing.T) {
	for _, g := range kindGoldens {
		t.Run(g.file, func(t *testing.T) {
			got := g.run(t)
			if again := g.run(t); !bytes.Equal(got, again) {
				t.Fatal("same-seed runs produced different trace bytes")
			}
			golden := filepath.Join("testdata", g.file)
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run go test ./internal/trace -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trace differs from golden %s (len got=%d want=%d); rerun with -update if the change is intended",
					golden, len(got), len(want))
			}
		})
	}
}

// eventKinds lists every kind of event the tracer emits, keyed as
// kindOf names them. A new emitter adds its kind here, and a golden
// that holds it.
var eventKinds = []string{
	// CPU tracks.
	"ctxswitch", "wakeup", "IPI", "preempt",
	"txn-commit/local", "txn-commit/remote", "bpf-commit", "txn-recall",
	"txn-fail", "txn-fail/aseq", "txn-fail/tseq", "txn-fail/fault", "txn-fail/group-abort",
	// Enclave tracks.
	"msg-posted", "group-commit", "atomic-commit",
	"watchdog-armed", "watchdog-fired", "destroy",
	"upgrade-begin", "upgrade-attach", "upgrade-timeout", "upgrade-skipped",
	// Agent tracks.
	"msg-delivered", "schedule/global", "schedule/local",
	// The fault track.
	"fault/crash", "fault/crash-skipped", "fault/upgrade", "fault/stall", "fault/slow",
	"fault/msgdrop", "fault/msgdrop-window", "fault/msgdelay", "fault/msgdelay-window",
	"fault/msgdup", "fault/msgdup-window", "fault/ipiloss", "fault/ipiloss-window",
	"fault/ipidelay", "fault/ipidelay-window", "fault/txnfail", "fault/txnfail-window",
}

// kindOf names an event's kind: its name, refined by the argument that
// tells its variants apart. Slices, wakeups and messages are named by
// thread or message type, so they go by category and track instead.
func kindOf(e traceEvent) string {
	switch {
	case e.Cat == "ctxswitch" || e.Ph == "E":
		return "ctxswitch"
	case e.Cat == "sched" && e.Args["event"] == "wakeup":
		return "wakeup"
	case e.Cat == "message" && e.Pid == 3:
		return "msg-posted"
	case e.Cat == "message" && e.Pid == 2:
		return "msg-delivered"
	case e.Cat == "fault":
		return "fault/" + e.Name
	case e.Name == "txn-commit" || e.Name == "schedule":
		return fmt.Sprintf("%s/%v", e.Name, e.Args["mode"])
	case e.Name == "txn-fail" && e.Args["cause"] != nil:
		return fmt.Sprintf("%s/%v", e.Name, e.Args["cause"])
	}
	return e.Name
}

type traceEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Args map[string]any `json:"args"`
}

// TestGoldensHoldEveryKind: every kind of event the tracer emits is in
// at least one golden, so a refactor of any emitter is pinned byte for
// byte.
func TestGoldensHoldEveryKind(t *testing.T) {
	files := []string{"global_fifo.json", "faults_fifo.json"}
	for _, g := range kindGoldens {
		files = append(files, g.file)
	}
	seen := map[string]bool{}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join("testdata", f))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, e := range tf.TraceEvents {
			if e.Ph != "M" {
				seen[kindOf(e)] = true
			}
		}
	}
	want := map[string]bool{}
	for _, k := range eventKinds {
		want[k] = true
		if !seen[k] {
			t.Errorf("no golden holds a %q event", k)
		}
	}
	var unlisted []string
	for k := range seen {
		if !want[k] {
			unlisted = append(unlisted, k)
		}
	}
	sort.Strings(unlisted)
	if len(unlisted) > 0 {
		t.Errorf("goldens hold kinds eventKinds does not list: %v", unlisted)
	}
}
