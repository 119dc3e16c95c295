package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileBasics(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{100, 10},
		{50, 5.5}, // interpolated median of an even-length set
		{25, 3.25},
		{90, 9.1},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single-sample percentile = %v", got)
	}
	if got := Percentile([]float64{3, 1}, -5); got != 1 {
		t.Errorf("clamped-low percentile = %v", got)
	}
	if got := Percentile([]float64{3, 1}, 150); got != 3 {
		t.Errorf("clamped-high percentile = %v", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	Percentile(vals, 50)
	want := []float64{5, 1, 4, 2, 3}
	for i := range vals {
		if vals[i] != want[i] {
			t.Fatalf("input mutated: %v", vals)
		}
	}
}

func TestSummarize(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..1000
	}
	s := Summarize(vals)
	if math.Abs(s.Median-500.5) > 1e-9 {
		t.Errorf("median = %v", s.Median)
	}
	if s.Max != 1000 {
		t.Errorf("max = %v", s.Max)
	}
	if s.P99 < 989 || s.P99 > 991 {
		t.Errorf("p99 = %v", s.P99)
	}
	if s.P999 < 998 || s.P999 > 1000 {
		t.Errorf("p999 = %v", s.P999)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestDurationsToSeconds(t *testing.T) {
	in := []time.Duration{time.Second, 1500 * time.Millisecond, 0}
	got := DurationsToSeconds(in)
	want := []float64{1, 1.5, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v", got)
		}
	}
}

func TestPercentOf(t *testing.T) {
	if got := PercentOf(50, 200); got != 25 {
		t.Errorf("PercentOf(50, 200) = %v", got)
	}
	if got := PercentOf(0, 0); got != 100 {
		t.Errorf("PercentOf(0, 0) = %v, want 100", got)
	}
	if got := PercentOf(5, 0); !math.IsNaN(got) {
		t.Errorf("PercentOf(5, 0) = %v, want NaN", got)
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(raw []float64, p8 uint8) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		p := float64(p8) / 255 * 100
		got := Percentile(vals, p)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return got >= sorted[0] && got <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPercentileMonotoneInP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 100
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 0.5 {
		got := Percentile(vals, p)
		if got < prev {
			t.Fatalf("P%v = %v < P%v = %v", p, got, p-0.5, prev)
		}
		prev = got
	}
}
