package ghostcore

import (
	"testing"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// newQueueEnv builds the minimal machine a Queue needs (kernel clock,
// enclave) without the test helpers, so benchmarks can share it.
func newQueueEnv() (*kernel.Kernel, *Enclave) {
	topo := hw.NewTopology(hw.Config{Name: "q4", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 2, SMTWidth: 2})
	k := kernel.New(sim.NewEngine(), topo, hw.DefaultCostModel())
	g := NewClass(k, kernel.NewCFS(k))
	return k, NewEnclave(g, kernel.MaskAll(4))
}

// TestQueueRingFIFO drives the ring through growth and wraparound with
// interleaved Pop/Drain and checks strict FIFO delivery throughout.
func TestQueueRingFIFO(t *testing.T) {
	k, enc := newQueueEnv()
	defer k.Shutdown()
	q := enc.CreateQueue("ring")

	next := uint64(0) // next seq to post
	want := uint64(0) // next seq expected out
	post := func(n int) {
		for i := 0; i < n; i++ {
			q.post(Message{Type: MsgThreadWakeup, TID: 999, Seq: next})
			next++
		}
	}
	expect := func(m Message) {
		t.Helper()
		if m.Seq != want {
			t.Fatalf("got seq %d, want %d", m.Seq, want)
		}
		want++
	}

	// Interleave posts, pops and drains across several growth steps so
	// head/tail wrap the ring at multiple capacities.
	for round := 0; round < 8; round++ {
		post(3 + round*7)
		for i := 0; i < round*2; i++ {
			m, ok := q.Pop()
			if !ok {
				t.Fatal("Pop on non-empty queue failed")
			}
			expect(m)
		}
		if got := q.Len(); got != int(next-want) {
			t.Fatalf("Len = %d, want %d", got, int(next-want))
		}
		for _, m := range q.Drain(hw.NoCPU) {
			expect(m)
		}
		if q.Len() != 0 {
			t.Fatalf("Len = %d after Drain, want 0", q.Len())
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue succeeded")
	}
	if want != next {
		t.Fatalf("consumed %d of %d posted messages", want, next)
	}
}

// TestQueueDrainScratchReuse pins the Drain contract: the returned slice
// is the queue's scratch buffer, reused by the next Drain once warm.
func TestQueueDrainScratchReuse(t *testing.T) {
	k, enc := newQueueEnv()
	defer k.Shutdown()
	q := enc.CreateQueue("scratch")

	for i := 0; i < 10; i++ {
		q.post(Message{Type: MsgThreadWakeup, TID: 999, Seq: uint64(i)})
	}
	first := q.Drain(hw.NoCPU)
	if len(first) != 10 {
		t.Fatalf("first Drain returned %d messages, want 10", len(first))
	}
	for i := 0; i < 10; i++ {
		q.post(Message{Type: MsgThreadWakeup, TID: 999, Seq: uint64(100 + i)})
	}
	second := q.Drain(hw.NoCPU)
	if len(second) != 10 {
		t.Fatalf("second Drain returned %d messages, want 10", len(second))
	}
	if &first[0] != &second[0] {
		t.Fatal("second Drain did not reuse the scratch buffer")
	}
	for i, m := range second {
		if m.Seq != uint64(100+i) {
			t.Fatalf("second Drain seq[%d] = %d, want %d", i, m.Seq, 100+i)
		}
	}
}

// BenchmarkQueuePostDrain is the 0 allocs/op gate for the message hot
// path: a steady-state post/deliver/Drain cycle must never touch the
// allocator, exactly like the real shared-memory rings (ISSUE 8).
func BenchmarkQueuePostDrain(b *testing.B) {
	k, enc := newQueueEnv()
	defer k.Shutdown()
	q := enc.CreateQueue("bench")

	// Warm the ring and scratch past their steady-state capacity.
	for i := 0; i < 32; i++ {
		q.post(Message{Type: MsgThreadWakeup, TID: 999})
	}
	q.Drain(hw.NoCPU)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			q.post(Message{Type: MsgThreadPreempted, TID: 999, Seq: uint64(j)})
		}
		q.Drain(hw.NoCPU)
	}
}
