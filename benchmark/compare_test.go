package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		worse, noise, bound float64
		want                string
	}{
		{worse: 0.02, noise: 0.03, bound: 0.10, want: "ok"},
		{worse: -0.30, noise: 0.03, bound: 0.10, want: "ok"}, // better is never a regression
		{worse: 0.12, noise: 0.03, bound: 0.10, want: "regressed"},
		{worse: 0.12, noise: 0.15, bound: 0.10, want: "unresolved"}, // too noisy to tell either way
		{worse: 0.00, noise: 0.15, bound: 0.10, want: "unresolved"},
	} {
		if got := verdict(tc.worse, tc.noise, tc.bound); got != tc.want {
			t.Errorf("verdict(worse=%v, noise=%v, bound=%v) = %s, want %s", tc.worse, tc.noise, tc.bound, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rates []float64) string {
		var sb strings.Builder
		for i, r := range rates {
			line, err := json.Marshal(report{Workload: "sim-steady", Seed: int64(i), Correct: true, Metrics: map[string]metricValue{
				"ops_per_s": {Value: r, Unit: "1/s"},
				"setup_s":   {Value: 0.1, Unit: "s"},
			}})
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(line)
			// The driver's result line follows each report; it names no
			// workload and must be skipped.
			sb.WriteString("\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n")
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", []float64{100, 101, 99, 100, 102})
	same := write("same.jsonl", []float64{101, 100, 99, 102, 100})
	slow := write("slow.jsonl", []float64{70, 71, 69, 70, 72})

	var out strings.Builder
	regressed, err := compareFiles(&out, base, same)
	if err != nil {
		t.Fatal(err)
	}
	if regressed || !strings.Contains(out.String(), "ok") {
		t.Errorf("equal sets: regressed=%v\n%s", regressed, out.String())
	}
	out.Reset()
	regressed, err = compareFiles(&out, base, slow)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out.String(), "regressed") {
		t.Errorf("30%% slower set: regressed=%v\n%s", regressed, out.String())
	}
	if _, err := compareFiles(&out, base, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("a missing file was not reported")
	}
}
