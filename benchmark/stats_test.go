package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	for _, tc := range []struct{ p, want float64 }{
		{0.001, 1}, // any p > 0 reaches at least the first sample
		{20, 1},    // exactly one fifth: rank 1
		{20.01, 2},
		{50, 3},
		{95, 5},
		{100, 5},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input must give NaN, not a value that looks measured")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// gives, since that is what the driver computes spreads from.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd count: got %v", got)
	}
}
