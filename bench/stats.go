package main

import (
	"math"

	"entitytrace/internal/stats"
)

// percentile returns the p-th percentile (0..1) of vals by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(vals []float64, p float64) float64 {
	s := stats.NewSample(true)
	for _, v := range vals {
		s.Add(v)
	}
	v, err := s.Percentile(100 * p)
	if err != nil {
		return math.NaN()
	}
	return v
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// sample is one timed observation: when it was due (nanoseconds from
// the start of its phase) and what was measured.
type sample struct {
	atNanos int64
	value   float64
}

// quiet returns the value of the quietest tenth of the 1-s slices: the
// 10th percentile of their values when lower is better, the 90th when
// higher is. On a shared host interference is one-sided, a neighbour
// only ever slows a slice, so the best tenth says what the code does
// and repeats better than the middle (README.md has the measurements).
func quiet(perSlice []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return percentile(perSlice, 0.10)
	}
	return percentile(perSlice, 0.90)
}

// sliceStat cuts samples into slices of sliceNanos by their due time,
// takes the p-th percentile of every slice that holds at least minCount
// samples, and returns the quiet value of those slice percentiles.
func sliceStat(samples []sample, sliceNanos int64, p float64, minCount int) (value float64, slices int) {
	buckets := map[int64][]float64{}
	for _, s := range samples {
		k := s.atNanos / sliceNanos
		buckets[k] = append(buckets[k], s.value)
	}
	var per []float64
	for _, vals := range buckets {
		if len(vals) >= minCount {
			per = append(per, percentile(vals, p))
		}
	}
	return quiet(per, true), len(per)
}

// ratio is a/b, 0 when b is 0 (a count that did not happen has no
// per-trace share).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
