package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20}, 7.5, 22.5}, // two samples extrapolate, as Python does
		{[]float64{1, 2, 4}, 1, 4},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
		{[]float64{6}, 6, 6},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// With few samples p90 is the largest: it is a measured value,
	// never an interpolation beyond the data.
	if got := percentile([]float64{1, 2, 3}, 90); got != 3 {
		t.Errorf("percentile of three samples = %v, want 3", got)
	}
}

func TestRatioOfIdleLayerIsZero(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(6, 3); got != 2 {
		t.Errorf("ratio(6, 3) = %v, want 2", got)
	}
}
