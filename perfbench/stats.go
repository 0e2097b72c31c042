package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: fewer make the tail one or two unlucky requests.
const minBeyond = 10

// rank returns the nearest-rank index of percentile p (0 < p ≤ 100) in
// n sorted samples: the smallest index i such that at least p% of the
// samples are ≤ sorted[i].
func rank(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return max(0, min(i, n-1))
}

// supported reports whether at least minBeyond of n samples lie beyond
// percentile p.
func supported(p float64, n int) bool {
	return n > 0 && n-1-rank(p, n) >= minBeyond
}

// percentile returns the nearest-rank percentile p of xs (sorting a
// copy), or NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(p, len(s))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0 (a share of nothing is none).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeIt runs f reps times and returns the median duration in ms.
func timeIt(reps int, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		f()
		xs[i] = ms(time.Since(start))
	}
	return percentile(xs, 50)
}
