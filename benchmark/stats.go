package main

import "sort"

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailMinBeyond is how many samples must lie above a reported tail value
// for it to be more than a reading of a few outliers.
const tailMinBeyond = 10

// tail returns the highest percentile of xs that still has tailMinBeyond
// samples beyond it: the value and the percentile it sits at. With too few
// samples for any tail it falls back to the median (pct 50).
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= tailMinBeyond {
		return median(xs), 50
	}
	s := sorted(xs)
	i := n - tailMinBeyond - 1
	return s[i], 100 * float64(i+1) / float64(n)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
