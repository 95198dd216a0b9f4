// Package stats provides the summary statistics used to aggregate
// experiment trials (the paper averages 50 topologies per data point).
package stats

import (
	"errors"
	"math"
	"sort"
)

// Summary describes a sample of measurements.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n−1)
	Min    float64
	Max    float64
	Median float64
	CI95   float64 // half-width of the normal-approximation 95% CI
}

// Summarize computes a Summary; it errors on empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, errors.New("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
		s.CI95 = 1.96 * s.StdDev / math.Sqrt(float64(s.N))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s, nil
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
