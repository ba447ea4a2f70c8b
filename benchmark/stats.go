package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile with the exclusive
// method — the cut points of Python's statistics.quantiles(xs, n=4),
// which is what the acceptance check of this benchmark uses. Fewer
// than two samples have no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return median(xs), median(xs)
	}
	s := sortedCopy(xs)
	return exclusiveQuantile(s, 0.25), exclusiveQuantile(s, 0.75)
}

func exclusiveQuantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	switch {
	case j < 1:
		j = 1
	case j > n-1:
		j = n - 1
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

// percentile is the nearest-rank percentile (p in (0,100]): the
// smallest sample with at least p% of the samples at or below it, so
// it is always a value that was measured.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
