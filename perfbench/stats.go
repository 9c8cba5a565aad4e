package main

import (
	"math"
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie above a reported tail
// percentile: a tail read off fewer samples is one slow outlier, not a
// percentile.
const tailMinBeyond = 10

// median returns the median of xs (0 for no samples). xs is not modified.
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

// tail returns the highest percentile of xs that still has at least
// minBeyond samples strictly above it in rank: the k-th smallest sample
// with k = n-minBeyond, reported as percentile 100·k/n. With n <= minBeyond
// no percentile qualifies; tail then returns the maximum with ok false so
// the caller can record that the figure is a maximum, not a percentile.
func tail(xs []float64, minBeyond int) (value, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	n := len(s)
	if n <= minBeyond {
		return s[n-1], 100, false
	}
	k := n - minBeyond // 1-based rank of the reported sample
	return s[k-1], 100 * float64(k) / float64(n), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share returns part/whole, or 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 || math.IsNaN(whole) {
		return 0
	}
	return part / whole
}
