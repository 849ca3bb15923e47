package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles the tail rule chooses from, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// rank returns the nearest-rank index of percentile p in n sorted samples:
// the smallest index whose cumulative share reaches p. The epsilon keeps
// decimal percentiles such as 99.9 from rounding up a whole rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return max(0, min(r, n-1))
}

// beyond returns how many of n samples lie above percentile p.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// tailPercentile returns the highest percentile on the ladder with at least
// minBeyond samples beyond it, or false when n is too small for any.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns percentile p of sorted samples by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// sortedCopy returns the samples sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle two for even n).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
