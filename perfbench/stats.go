package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// fewer, and the percentile is one or two outliers, not a tail.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of
// xs, and false when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}

// ms converts a duration to milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// frac returns num/den, or 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
