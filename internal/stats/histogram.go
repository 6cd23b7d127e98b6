// Package stats provides the measurement primitives used by the
// experiment harness: log-bucketed latency histograms with percentile
// extraction, throughput meters, and time-series samplers.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"ghost/internal/sim"
)

// Histogram records durations in logarithmically spaced buckets. It is
// HDR-style: buckets grow by a fixed ratio so relative error is bounded
// (~5% with the default 64 buckets per decade) across nine decades,
// 1 ns .. 1000 s. The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]uint64
	total  uint64
	sum    float64
	min    sim.Duration
	max    sim.Duration
}

const (
	bucketsPerDecade = 64
	histDecades      = 12
	histBuckets      = bucketsPerDecade*histDecades + 2
)

// log10Bucket defines the bucket of d: 64 per decade, by the leading
// digits of its base-10 logarithm. bucketOf computes the same bucket
// from tables built with it once, at package init.
func log10Bucket(d sim.Duration) int {
	if d < 1 {
		return 0
	}
	b := int(math.Log10(float64(d))*bucketsPerDecade) + 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketLows[b] is the smallest positive duration in bucket b, so the
// bucket of d ≥ 1 is the last b with bucketLows[b] <= d (log10Bucket is
// monotone). bucketFloor[i] is the bucket of the smallest duration with
// floorKey i: a lower bound that bucketOf advances from in at most four
// steps, since a key spans less than an eighth of an octave.
var (
	bucketLows  [histBuckets]sim.Duration
	bucketFloor [floorKeys]uint16
)

// floorKeys counts the floorKey values of positive int64 durations.
const floorKeys = (63-4)*8 + 16

// floorKey indexes d ≥ 1 by its bit length and its four leading bits:
// d itself below 16, else 8 keys per bit length.
func floorKey(d sim.Duration) int {
	shift := max(bits.Len64(uint64(d))-4, 0)
	return shift*8 + int(d>>shift)
}

func init() {
	for b := 1; b < histBuckets; b++ {
		// Start at the exact power of ten, then settle on the float
		// formula's own boundary.
		d := sim.Duration(math.Ceil(math.Pow(10, float64(b-1)/bucketsPerDecade)))
		for d > 1 && log10Bucket(d-1) >= b {
			d--
		}
		for log10Bucket(d) < b {
			d++
		}
		bucketLows[b] = d
	}
	for i := 1; i < floorKeys; i++ {
		shift := max(i/8-1, 0)
		low := sim.Duration(i-shift*8) << shift // smallest d with floorKey(d) == i
		b := sort.Search(histBuckets, func(b int) bool { return bucketLows[b] > low }) - 1
		bucketFloor[i] = uint16(b)
	}
}

func bucketOf(d sim.Duration) int {
	if d < 1 {
		return 0
	}
	b := int(bucketFloor[floorKey(d)])
	for b+1 < histBuckets && bucketLows[b+1] <= d {
		b++
	}
	return b
}

// bucketLow returns the smallest duration mapping to bucket b.
func bucketLow(b int) sim.Duration {
	if b <= 0 {
		return 0
	}
	return sim.Duration(math.Pow(10, float64(b-1)/bucketsPerDecade))
}

// Record adds one observation. The bucket array is part of the struct
// (~6 KB), so recording into a zero-value histogram allocates nothing.
func (h *Histogram) Record(d sim.Duration) {
	if h.total == 0 {
		h.min = math.MaxInt64
	}
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += float64(d)
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return sim.Duration(h.sum / float64(h.total))
}

// Max returns the largest recorded value.
func (h *Histogram) Max() sim.Duration { return h.max }

// Quantile returns the duration at quantile q in [0,1]. Exact min/max are
// returned at the extremes; interior quantiles carry the bucket's
// relative error.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for b, c := range h.counts[:] {
		seen += c
		if seen > rank {
			// Midpoint of bucket, clamped to observed range.
			lo, hi := bucketLow(b), bucketLow(b+1)
			mid := (lo + hi) / 2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// P50, P90, P99 and P999 are the percentile shorthands used by the
// paper's figures.
func (h *Histogram) P50() sim.Duration  { return h.Quantile(0.50) }
func (h *Histogram) P90() sim.Duration  { return h.Quantile(0.90) }
func (h *Histogram) P99() sim.Duration  { return h.Quantile(0.99) }
func (h *Histogram) P999() sim.Duration { return h.Quantile(0.999) }

// Merge adds all of other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	if h.total == 0 {
		h.min = math.MaxInt64
	}
	for i, c := range other.counts[:] {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// HistogramState is a histogram's serialized form (snapshot/restore):
// non-zero buckets as parallel index/count arrays plus the scalar
// aggregates.
type HistogramState struct {
	Idx   []int    `json:"idx,omitempty"`
	N     []uint64 `json:"n,omitempty"`
	Total uint64   `json:"total"`
	Sum   float64  `json:"sum"`
	Min   int64    `json:"min"`
	Max   int64    `json:"max"`
}

// State captures the histogram for serialization.
func (h *Histogram) State() HistogramState {
	s := HistogramState{Total: h.total, Sum: h.sum, Min: int64(h.min), Max: int64(h.max)}
	for i, c := range h.counts[:] {
		if c != 0 {
			s.Idx = append(s.Idx, i)
			s.N = append(s.N, c)
		}
	}
	return s
}

// SetState overwrites the histogram with a previously captured state.
func (h *Histogram) SetState(s HistogramState) {
	h.Reset()
	for i, b := range s.Idx {
		if b >= 0 && b < histBuckets && i < len(s.N) {
			h.counts[b] = s.N[i]
		}
	}
	h.total = s.Total
	h.sum = s.Sum
	h.min = sim.Duration(s.Min)
	h.max = sim.Duration(s.Max)
}

// Reset discards all observations.
func (h *Histogram) Reset() {
	h.counts = [histBuckets]uint64{}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// String summarises the distribution for logs and test failures.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "histogram{empty}"
	}
	return fmt.Sprintf("histogram{n=%d mean=%v p50=%v p99=%v p999=%v max=%v}",
		h.total, h.Mean(), h.P50(), h.P99(), h.P999(), h.Max())
}

// Percentiles formats the named percentile row used by Fig 7 style tables.
func (h *Histogram) Percentiles() string {
	var b strings.Builder
	for _, p := range []struct {
		name string
		q    float64
	}{{"50%", .5}, {"90%", .9}, {"99%", .99}, {"99.9%", .999}, {"99.99%", .9999}, {"99.999%", .99999}} {
		fmt.Fprintf(&b, "%s=%v ", p.name, h.Quantile(p.q))
	}
	return strings.TrimSpace(b.String())
}
