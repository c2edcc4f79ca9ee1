// Package stats provides the summary statistics the paper reports in its
// evaluation tables (mean, standard deviation, standard error) plus
// the percentiles used by the benchmark harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample accumulates observations with Welford's online algorithm, so it
// is numerically stable and needs O(1) memory for mean/stddev. It also
// retains raw values (optional, bounded) for percentile queries.
type Sample struct {
	n       int
	mean    float64
	m2      float64
	min     float64
	max     float64
	raw     []float64
	keepRaw bool
}

// NewSample returns a Sample. If keepRaw is true, individual observations
// are retained so percentiles can be computed.
func NewSample(keepRaw bool) *Sample {
	return &Sample{keepRaw: keepRaw, min: math.Inf(1), max: math.Inf(-1)}
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.n++
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if s.keepRaw {
		s.raw = append(s.raw, v)
	}
}

// AddDuration records a duration observation in milliseconds, the unit
// used throughout the paper's tables.
func (s *Sample) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Variance returns the sample (n-1) variance.
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean (stddev / sqrt(n)).
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Min returns the smallest observation, or 0 with no observations.
func (s *Sample) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, or 0 with no observations.
func (s *Sample) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It requires raw retention.
func (s *Sample) Percentile(p float64) (float64, error) {
	if !s.keepRaw {
		return 0, fmt.Errorf("stats: sample does not retain raw values")
	}
	if s.n == 0 {
		return 0, fmt.Errorf("stats: empty sample")
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range", p)
	}
	sorted := append([]float64(nil), s.raw...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Summary is the (mean, stddev, stderr) triple reported in the paper's
// tables, in milliseconds.
type Summary struct {
	Name   string
	N      int
	Mean   float64
	StdDev float64
	StdErr float64
}

// Summarize produces a Summary with the given row name.
func (s *Sample) Summarize(name string) Summary {
	return Summary{Name: name, N: s.n, Mean: s.Mean(), StdDev: s.StdDev(), StdErr: s.StdErr()}
}

// String formats the summary like a row of the paper's Table 3.
func (sm Summary) String() string {
	return fmt.Sprintf("%-40s %10.2f %10.2f %10.2f", sm.Name, sm.Mean, sm.StdDev, sm.StdErr)
}
