// Package stats provides the small statistical toolkit the evaluation
// needs: percentiles over latency samples and ratio tables against a
// baseline, as used throughout the paper's §V-F.
package stats

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of values using
// linear interpolation between closest ranks. It returns 0 for an empty
// slice. The input is not modified.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds the percentile set the paper reports for latencies
// (Table V): median, 99th and 99.9th.
type Summary struct {
	// Median is the 50th percentile.
	Median float64

	// P99 is the 99th percentile.
	P99 float64

	// P999 is the 99.9th percentile.
	P999 float64

	// Max is the largest sample.
	Max float64
}

// Summarize computes a Summary over values. The input is not modified.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return Summary{
		Median: percentileSorted(sorted, 50),
		P99:    percentileSorted(sorted, 99),
		P999:   percentileSorted(sorted, 99.9),
		Max:    sorted[len(sorted)-1],
	}
}

// DurationsToSeconds converts a slice of durations to float seconds,
// the unit the paper's latency tables use.
func DurationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// PercentOf returns value as a percentage of base (the paper's "% SWIM"
// columns). It returns math.NaN() when base is zero and value non-zero,
// and 100 when both are zero (equal to baseline).
func PercentOf(value, base float64) float64 {
	if base == 0 {
		if value == 0 {
			return 100
		}
		return math.NaN()
	}
	return value / base * 100
}
