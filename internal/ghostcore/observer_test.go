package ghostcore

import (
	"reflect"
	"testing"
)

// drainLog records, in call order, the name of each observer that heard
// a drain.
type drainLog struct {
	name string
	log  *[]string
}

func (d drainLog) MsgDrained(*Enclave, Message) { *d.log = append(*d.log, d.name) }

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
// hear it in registration order, and one with no event method is
// accepted and never called.
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
	q.Drain()
	if want := []string{"a", "b", "a", "b"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("drain calls %v, want %v", log, want)
	}
}
