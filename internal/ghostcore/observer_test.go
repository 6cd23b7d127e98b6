package ghostcore

import (
	"reflect"
	"testing"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// drainLog records, in call order, the name of each observer that heard
// a drain.
type drainLog struct {
	name string
	log  *[]string
}

func (d drainLog) MsgDrained(*Enclave, Message, hw.CPUID) { *d.log = append(*d.log, d.name) }

// traceLog implements every event the tracer (internal/trace) observes,
// recording "name:event" in call order.
type traceLog struct {
	name string
	log  *[]string
}

func (d traceLog) note(ev string) { *d.log = append(*d.log, d.name+":"+ev) }

func (d traceLog) Tseq(*Enclave, *kernel.Thread, uint64, uint64, MsgType) { d.note("tseq") }
func (d traceLog) MsgDelivered(*Enclave, *Queue, Message, bool, bool)     { d.note("delivered") }
func (d traceLog) MsgDrained(*Enclave, Message, hw.CPUID)                 { d.note("drained") }
func (d traceLog) Latched(*Enclave, hw.CPUID, *kernel.Thread, Commit)     { d.note("latched") }
func (d traceLog) TxnFailed(*Enclave, *Txn, string)                       { d.note("failed") }
func (d traceLog) TxnRecalled(*Enclave, *Txn)                             { d.note("recalled") }
func (d traceLog) GroupCommit(*Enclave, int, bool)                        { d.note("group") }
func (d traceLog) Lifecycle(*Enclave, string, string)                     { d.note("lifecycle") }
func (d traceLog) AgentStep(*Enclave, hw.CPUID, sim.Duration, int, int, string) {
	d.note("step")
}

// filed counts the event lists an observer was filed under.
func filed(g *Class) int {
	n := 0
	v := reflect.ValueOf(g.obs)
	for i := 0; i < v.NumField(); i++ {
		n += v.Field(i).Len()
	}
	return n
}

// AddObserver files an observer under exactly the events it implements:
// one with only MsgDrained hears only drains, two observers of one event
// hear it in registration order, one with no event method is accepted
// and never called, and one of every event the tracer observes is
// filed once under each.
func TestObserverRouting(t *testing.T) {
	k, enc := newQueueEnv()
	defer k.Shutdown()
	g := enc.g
	q := enc.CreateQueue("q")

	g.AddObserver(struct{}{})
	if n := filed(g); n != 0 {
		t.Fatalf("an observer with no event method was filed %d times, want 0", n)
	}

	var log []string
	g.AddObserver(drainLog{"a", &log})
	if n := filed(g); n != 1 || len(g.obs.msgDrained) != 1 {
		t.Fatalf("a drain-only observer was filed %d times (%d as a drain observer), want once",
			n, len(g.obs.msgDrained))
	}
	g.AddObserver(drainLog{"b", &log})
	for i := 0; i < 2; i++ {
		q.post(Message{Type: MsgThreadWakeup, TID: 7})
	}
	if len(log) != 0 {
		t.Fatalf("posting reached drain observers: %v", log)
	}
	q.Drain(hw.NoCPU)
	if want := []string{"a", "b", "a", "b"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("drain calls %v, want %v", log, want)
	}

	// An observer of every event the tracer hears is filed once under
	// each, and two of them hear each event in registration order.
	k, enc = newQueueEnv()
	defer k.Shutdown()
	g = enc.g
	log = nil
	g.AddObserver(traceLog{"a", &log})
	const events = 9
	if n := filed(g); n != events {
		t.Fatalf("an observer of %d events was filed %d times", events, n)
	}
	g.AddObserver(traceLog{"b", &log})

	var txn Txn
	g.obsTseq(enc, nil, 0, 1, MsgThreadPreempted)
	g.obsMsgDelivered(enc, enc.DefaultQueue(), Message{}, false, false)
	g.obsMsgDrained(enc, Message{}, 0)
	g.obsLatched(enc, 0, nil, Commit{})
	g.obsTxnFailed(enc, &txn, "")
	g.obsTxnRecalled(enc, &txn)
	g.obsGroupCommit(enc, 2, false)
	g.obsLifecycle(enc, "destroy", "")
	enc.ReportAgentStep(0, 0, 0, 0, "local")
	var want []string
	for _, ev := range []string{"tseq", "delivered", "drained", "latched", "failed", "recalled", "group", "lifecycle", "step"} {
		want = append(want, "a:"+ev, "b:"+ev)
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("calls %v, want %v", log, want)
	}
}
