package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a p99 needs ≥1000 samples and a
// p90 ≥100. The median is always reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supportsPercentile reports whether n samples leave ≥ minBeyond of them
// beyond the p-quantile's rank.
func supportsPercentile(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= minBeyond
}

// tailOf picks the tail percentile of a latency sample: the workload's
// declared percentile when the sample supports it, otherwise the next lower
// of p90 and the median. It returns the percentile used (50, 90 or 99) and
// its value.
func tailOf(sorted []float64, declared float64) (pct float64, value float64) {
	for _, p := range []float64{0.99, 0.90} {
		if p <= declared && supportsPercentile(len(sorted), p) {
			return p * 100, percentile(sorted, p)
		}
	}
	return 50, median(sorted)
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle sample, or the mean of the middle two; 0 for an
// empty sample.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
