package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	in := []float64{9, 1, 5, 3, 7}
	q1, med, q3 := quartiles(in)
	if q1 != 3 || med != 5 || q3 != 7 {
		t.Errorf("quartiles = %v %v %v, want 3 5 7", q1, med, q3)
	}
	if in[0] != 9 {
		t.Error("quartiles sorted its input in place")
	}
	q1, _, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.75 || q3 != 3.25 {
		t.Errorf("interpolated quartiles = %v %v, want 1.75 3.25", q1, q3)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{90, 100, 110, 95, 105}); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("spread = %v, want 0.10", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread around a zero median = %v, want 0", got)
	}
}

// The tail percentile must leave at least ten samples beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i)
		}
		return vs
	}
	for _, tc := range []struct {
		n       int
		want    float64
		wantPct float64
		wantVal float64
	}{
		{n: 5, want: 99, wantPct: 50, wantVal: 2},                // too few for any tail
		{n: 10, want: 99, wantPct: 50, wantVal: 4.5},             // still too few
		{n: 101, want: 99, wantPct: 90, wantVal: 90},             // p99 would leave one sample: capped at p90
		{n: 1001, want: 99, wantPct: 99, wantVal: 990},           // exactly ten beyond p99
		{n: 20000, want: 99, wantPct: 99, wantVal: 0.99 * 19999}, // plenty
		{n: 1001, want: 99.9, wantPct: 99, wantVal: 990},         // p99.9 capped to p99
	} {
		pct, val := tailPercentile(ramp(tc.n), tc.want)
		if math.Abs(pct-tc.wantPct) > 1e-9 || math.Abs(val-tc.wantVal) > 1e-6 {
			t.Errorf("n=%d want p%v: got p%v = %v, want p%v = %v", tc.n, tc.want, pct, val, tc.wantPct, tc.wantVal)
		}
		if tc.n > 10 {
			if beyond := float64(tc.n-1) - val; beyond < 10-1e-6 {
				t.Errorf("n=%d: only %v samples beyond the reported percentile", tc.n, beyond)
			}
		}
	}
}
