package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule's support threshold: a percentile
// is reported only when at least this many samples lie beyond it.
const minBeyond = 10

// tailCandidates are the percentiles the rule chooses among, ascending.
var tailCandidates = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// supported reports whether n samples leave at least minBeyond of them
// beyond percentile q (nearest-rank).
func supported(n int, q float64) bool {
	return n-rank(n, q) >= minBeyond
}

// highestSupported returns the highest candidate percentile n samples
// support, and false when not even the median has ten samples beyond it
// (the median is still reported then; a tail is not).
func highestSupported(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range tailCandidates {
		if supported(n, q) {
			best, ok = q, true
		}
	}
	return best, ok
}

// rank is the 1-based nearest-rank index of percentile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile reads the nearest-rank percentile from ascending samples
// (0 when there are none).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// sortedCopy returns xs ascending without disturbing the caller's order.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the mean of the middle pair for even counts, so a
// two-sample median is not biased low (0 when there are none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance rule for the benchmark's spread is written against.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(i int) float64 { // quantile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after clamping, as CPython does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}
