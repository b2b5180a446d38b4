package main

import (
	"math"
	"sort"
)

// tailLadder holds the percentiles a tail may be reported at. Coarse
// steps keep the chosen percentile the same across runs whose sample
// counts differ by a few percent.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a percentile for it to
// count as a tail.
const minBeyond = 10

// quantile holds a timing's median and tail, with the tail's percentile
// and the sample count both came from.
type quantile struct {
	P50  float64
	Tail float64
	Pct  float64 // percentile of Tail; 0 when too few samples for any
	N    int
}

// rankIndex is the nearest-rank index of percentile p in n sorted
// samples.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// summarize returns the median of xs and its tail: the highest ladder
// percentile that has at least minBeyond samples above its rank in a
// sample of size base. base ≤ len(xs) (0 means len(xs)) lets runs of
// different lengths report the same percentile, each with at least
// minBeyond samples beyond it. With too few samples for any percentile,
// Tail is the maximum and Pct 0.
func summarize(xs []float64, base int) quantile {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := quantile{N: len(s)}
	if len(s) == 0 {
		return q
	}
	if base <= 0 || base > len(s) {
		base = len(s)
	}
	q.P50 = median(s)
	q.Tail = s[len(s)-1]
	for _, p := range tailLadder {
		if base-1-rankIndex(p, base) >= minBeyond {
			q.Tail, q.Pct = s[rankIndex(p, len(s))], p
			break
		}
	}
	return q
}

// median of xs (not modified).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
