package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"ghost/internal/sim"
)

// bucketOf's tables reproduce the Log10 definition exactly: around every
// bucket boundary, at a million random durations up to 1e12 (where the
// last bucket starts), and at the extremes of the int64 range.
func TestBucketOfMatchesLog10(t *testing.T) {
	check := func(d sim.Duration) {
		if got, want := bucketOf(d), log10Bucket(d); got != want {
			t.Fatalf("bucketOf(%d) = %d, Log10 definition gives %d", d, got, want)
		}
	}
	for b := 1; b < histBuckets; b++ {
		for d := bucketLows[b] - 2; d <= bucketLows[b]+2; d++ {
			check(d)
		}
	}
	r := sim.NewRand(1)
	for i := 0; i < 1_000_000; i++ {
		check(1 + sim.Duration(r.Uint64()%1e12))
	}
	for _, d := range []sim.Duration{math.MinInt64, -1, 0, 1e12 - 1, 1e12, 1e15, 1 << 62, math.MaxInt64} {
		check(d)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for i := 1; i <= 100; i++ {
		h.Record(sim.Duration(i * 1000))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Quantile(0) != 1000 || h.Max() != 100000 {
		t.Fatalf("min/max = %d/%d", h.Quantile(0), h.Max())
	}
	mean := h.Mean()
	if mean < 49000 || mean > 52000 {
		t.Fatalf("mean = %d, want ~50500", mean)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// Uniform 1..10000 us.
	for i := 1; i <= 10000; i++ {
		h.Record(sim.Duration(i) * sim.Microsecond)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		want := float64(q * 10000)
		got := float64(h.Quantile(q)) / float64(sim.Microsecond)
		if math.Abs(got-want)/want > 0.06 {
			t.Fatalf("q%.2f = %.0f us, want ~%.0f (err > 6%%)", q, got, want)
		}
	}
}

func TestHistogramExtremeQuantiles(t *testing.T) {
	var h Histogram
	h.Record(5)
	h.Record(500000)
	if h.Quantile(0) != 5 {
		t.Fatalf("q0 = %d, want min", h.Quantile(0))
	}
	if h.Quantile(1) != 500000 {
		t.Fatalf("q1 = %d, want max", h.Quantile(1))
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 1000; i++ {
		a.Record(sim.Duration(100 + i))
		b.Record(sim.Duration(100000 + i))
	}
	a.Merge(&b)
	if a.Count() != 2000 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Quantile(0) != 100 || a.Max() != 100999 {
		t.Fatalf("merged min/max = %d/%d", a.Quantile(0), a.Max())
	}
	med := a.Quantile(0.5)
	if med > 100000 && med < 100 {
		t.Fatalf("median = %d out of range", med)
	}
	var empty Histogram
	a.Merge(&empty) // must not disturb
	if a.Count() != 2000 {
		t.Fatal("merging empty changed count")
	}
	empty.Merge(&a)
	if empty.Count() != 2000 {
		t.Fatal("merge into empty failed")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
	h.Record(7)
	if h.Quantile(0) != 7 {
		t.Fatalf("min after reset = %d", h.Quantile(0))
	}
}

// Property: quantiles are monotone in q and bounded by [min, max].
func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Record(sim.Duration(v%10_000_000) + 1)
		}
		prev := sim.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev || v < h.Quantile(0) || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram quantile is within bucket error of the exact
// quantile for interior q.
func TestHistogramMatchesExact(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 10 {
			return true
		}
		var h Histogram
		var e Exact
		for _, v := range raw {
			d := sim.Duration(v) + 1
			h.Record(d)
			e.Record(d)
		}
		for _, q := range []float64{0.25, 0.5, 0.75} {
			hq, eq := float64(h.Quantile(q)), float64(e.Quantile(q))
			if eq == 0 {
				continue
			}
			if math.Abs(hq-eq)/eq > 0.10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExact(t *testing.T) {
	var e Exact
	for i := 100; i >= 1; i-- {
		e.Record(sim.Duration(i))
	}
	if e.Quantile(0.5) != 51 {
		t.Fatalf("exact median = %d, want 51", e.Quantile(0.5))
	}
	if e.Quantile(0) != 1 || e.Quantile(1) != 100 {
		t.Fatal("exact extremes wrong")
	}
	if e.Mean() != 50 {
		t.Fatalf("exact mean = %d, want 50", e.Mean())
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	if h.String() != "histogram{empty}" {
		t.Fatalf("empty string = %q", h.String())
	}
	h.Record(1000)
	if h.String() == "" || h.Percentiles() == "" {
		t.Fatal("formatting empty")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(sim.Duration(i%1000000 + 1))
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	var h Histogram
	for i := 0; i < 100000; i++ {
		h.Record(sim.Duration(i + 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.99)
	}
}

// TestHistogramRecordAllocFree pins the last allocating hot path: the
// bucket array lives in the struct, so recording — including the very
// first observation into a zero-value histogram — must not allocate.
func TestHistogramRecordAllocFree(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(100, func() {
		h.Record(1500)
		h.Record(3 * sim.Microsecond)
	}); n != 0 {
		t.Fatalf("Record allocates %.1f per run, want 0", n)
	}
	var fresh Histogram
	if n := testing.AllocsPerRun(1, func() { fresh.Record(1) }); n != 0 {
		t.Fatalf("first Record into zero value allocates %.1f, want 0", n)
	}
}

// Exact is the reference the histogram is checked against: an
// exact-percentile recorder that stores every observation.
type Exact struct {
	vals   []sim.Duration
	sorted bool
}

// Record adds one observation.
func (e *Exact) Record(d sim.Duration) {
	e.vals = append(e.vals, d)
	e.sorted = false
}

// Quantile returns the exact q-quantile by nearest-rank.
func (e *Exact) Quantile(q float64) sim.Duration {
	if len(e.vals) == 0 {
		return 0
	}
	if !e.sorted {
		sort.Slice(e.vals, func(i, j int) bool { return e.vals[i] < e.vals[j] })
		e.sorted = true
	}
	idx := int(q * float64(len(e.vals)))
	if idx >= len(e.vals) {
		idx = len(e.vals) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return e.vals[idx]
}

// Mean returns the arithmetic mean.
func (e *Exact) Mean() sim.Duration {
	if len(e.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range e.vals {
		sum += float64(v)
	}
	return sim.Duration(sum / float64(len(e.vals)))
}
