package main

import "sort"

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it: the (n-tailBeyond)-th smallest value, at percentile
// 100*(n-tailBeyond)/n. With tailBeyond or fewer samples no value qualifies
// and it returns the minimum; callers report the sample count.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) - tailBeyond - 1
	if k < 0 {
		k = 0
	}
	return s[k], 100 * float64(k+1) / float64(len(s))
}
