package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; 0 when there are no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest percentile with at least ten samples beyond
// it, 100·(1−10/n) for n samples, and its value. Below 20 samples no
// percentile above the median has ten beyond it, and the tail is the
// largest sample, p100.
func tail(xs []float64) (pct, v float64) {
	q := 1 - 10/float64(len(xs))
	if len(xs) < 20 {
		q = 1
	}
	return 100 * q, quantile(xs, q)
}

// spread returns max(xs) - min(xs); 0 for no samples.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return hi - lo
}

// maxOf returns the largest of xs; 0 for no samples.
func maxOf(xs []float64) float64 { return quantile(xs, 1) }

// distinct counts the distinct values in xs.
func distinct(xs []float64) int {
	seen := map[float64]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}
