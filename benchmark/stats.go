package main

import "slices"

type number interface {
	~uint32 | ~int | ~int64 | ~float64
}

// quantileSorted reads quantile q of an ascending sample by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantileSorted[T number](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	lo, hi := float64(sorted[i]), float64(sorted[i+1])
	return lo + (hi-lo)*(pos-float64(i))
}

// median sorts a copy, so callers keep their order.
func median[T number](vs []T) float64 {
	return quantileSorted(slices.Sorted(slices.Values(vs)), 0.5)
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (its default "exclusive" method), which is what the acceptance
// rule for this benchmark is written in. It needs two values or more.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(vs))
	cut := func(k int) float64 {
		m := len(s) + 1
		j := min(max(k*m/4, 1), len(s)-1)
		delta := k*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
