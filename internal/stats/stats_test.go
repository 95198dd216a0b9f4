package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("expected error for empty sample")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1 || s.Mean != 42 || s.Min != 42 || s.Max != 42 || s.Median != 42 {
		t.Errorf("summary = %+v", s)
	}
	if s.StdDev != 0 || s.CI95 != 0 {
		t.Errorf("single sample must have zero spread: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 5 {
		t.Errorf("mean = %v", s.Mean)
	}
	// Sample stddev of this classic set: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", s.StdDev, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Errorf("median = %v", s.Median)
	}
}

func TestMedianOdd(t *testing.T) {
	s, _ := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Errorf("median = %v", s.Median)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_, _ = Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("input mutated")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
}

// Property: Min ≤ Median ≤ Max and Min ≤ Mean ≤ Max.
func TestSummaryOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Median+1e-9 && s.Median <= s.Max+1e-9 &&
			s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.StdDev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
