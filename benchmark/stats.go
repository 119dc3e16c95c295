package main

import (
	"math"
	"sort"
)

// sortedCopy returns vs sorted ascending, leaving the input untouched.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// quantileSorted returns the q-quantile (0 ≤ q ≤ 1) of an ascending
// slice by linear interpolation between closest ranks; 0 when empty.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := q * float64(len(s)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// median returns the middle value of vs (mean of the middle two for an
// even count); 0 when empty.
func median(vs []float64) float64 {
	return quantileSorted(sortedCopy(vs), 0.5)
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := sortedCopy(vs)
	return quantileSorted(s, 0.25), quantileSorted(s, 0.5), quantileSorted(s, 0.75)
}

// tailPercentile returns the highest percentile not above want (in
// percent) that still has at least ten samples beyond it, and its
// value. A tail read off fewer than ten samples is one outlier's
// position, not a property of the distribution. With ten samples or
// fewer it falls back to the median.
func tailPercentile(vs []float64, want float64) (pct, value float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n <= 10 {
		return 50, quantileSorted(s, 0.5)
	}
	// Index n-11 is the last position with ten samples strictly after it.
	maxPct := 100 * float64(n-11) / float64(n-1)
	pct = math.Min(want, maxPct)
	return pct, quantileSorted(s, pct/100)
}

// spread returns the interquartile range of vs as a share of its
// median, the run-to-run noise measure regression bounds are read
// against; 0 when the median is 0.
func spread(vs []float64) float64 {
	q1, med, q3 := quartiles(vs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
