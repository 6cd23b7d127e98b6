package stats

import (
	"fmt"

	"ghost/internal/sim"
)

// TimeSeries collects (time, value) samples, e.g. for Fig 8's 60-second
// QPS and latency traces.
type TimeSeries struct {
	Name   string
	Times  []sim.Time
	Values []float64
}

// Add appends one sample.
func (ts *TimeSeries) Add(t sim.Time, v float64) {
	ts.Times = append(ts.Times, t)
	ts.Values = append(ts.Values, v)
}

// Len returns the number of samples.
func (ts *TimeSeries) Len() int { return len(ts.Times) }

// Mean returns the mean of all sample values, 0 when empty.
func (ts *TimeSeries) Mean() float64 {
	if len(ts.Values) == 0 {
		return 0
	}
	var s float64
	for _, v := range ts.Values {
		s += v
	}
	return s / float64(len(ts.Values))
}

// Max returns the largest sample value, 0 when empty.
func (ts *TimeSeries) Max() float64 {
	var m float64
	for _, v := range ts.Values {
		if v > m {
			m = v
		}
	}
	return m
}

func (ts *TimeSeries) String() string {
	return fmt.Sprintf("series{%s n=%d mean=%.3f max=%.3f}", ts.Name, ts.Len(), ts.Mean(), ts.Max())
}
