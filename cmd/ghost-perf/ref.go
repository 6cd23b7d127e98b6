package main

import (
	"math"
	"time"
)

// reference is a fixed computation the benchmark times after every
// timed run call. On a shared host the speed available to one process
// drifts by ±20% over minutes as other tenants come and go; the
// reference slows and speeds up with it, so host time counted in
// reference runs is steady where wall time is not. It is shaped like the
// simulator's hot path: a binary heap of timestamps, a map keyed by id,
// and a goroutine handoff over channels. It calls only the standard
// library, so no change to the simulator can move it.
type reference struct {
	heap  []uint64
	m     map[uint64]uint64
	total time.Duration
	runs  int
}

func newReference() *reference {
	return &reference{heap: make([]uint64, 0, refHeap), m: make(map[uint64]uint64, refKeys)}
}

const (
	refHeap    = 512  // events in the heap
	refKeys    = 1024 // distinct map keys
	refPops    = 8000 // pop-and-push rounds
	refHandoff = 500  // channel round trips
)

// run executes the reference once and adds its host time.
func (r *reference) run() {
	t := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := r.heap[:0]
	for i := 0; i < refHeap; i++ {
		h = append(h, next()%100000)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for i := 0; i < refPops; i++ {
		v := h[0]
		h[0] = v + next()%1000
		siftDown(h, 0)
		r.m[x%refKeys] += v
	}
	req, res := make(chan uint64), make(chan uint64)
	go func() {
		for v := range req {
			res <- v + 1
		}
		close(res)
	}()
	for i := 0; i < refHandoff; i++ {
		req <- h[i%len(h)]
		<-res
	}
	close(req)
	<-res
	r.total += time.Since(t)
	r.runs++
}

func siftDown(h []uint64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// mean is the average host time of one reference run so far.
func (r *reference) mean() time.Duration {
	if r.runs == 0 {
		return 0
	}
	return r.total / time.Duration(r.runs)
}

// refNominal is the reference run time that defines a reference second:
// host time d counts as d seconds when the reference runs in refNominal,
// about its time on the 2-CPU host the benchmark was recorded on.
const refNominal = 800 * time.Microsecond

// elasticity is how much more the simulator slows than the reference when
// the host is contended: regressing log speed on log reference time over
// reps gave slopes of 1.2-1.4 on every workload, so the correction
// raises the reference's slow-down to this power. With it the quartile
// spread of speed over ten seeds fell from up to 13% to at most 6%.
const elasticity = 1.25

// refSeconds converts host time d into reference seconds, given the mean
// host time of one reference run measured alongside it.
func refSeconds(d, mean time.Duration) float64 {
	return d.Seconds() * math.Pow(refNominal.Seconds()/mean.Seconds(), elasticity)
}
