package lifeguard

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// BENCH_trajectory.jsonl holds one line per performance change: its
// number in the change sequence (pr), the commit (null on the line that
// lands with its own commit), its parent,
// the machine stamp the benchmark prints, the run length, and per
// (workload, metric) what `benchmark/run.sh -compare` printed over the
// paired runs — the new/base ratio of medians, the spread (null where
// it was not recorded), the pair count and the verdict — and whether the
// change claimed a gain in it. Ratios from paired runs are comparable
// across machines; absolute values are not, so none are kept.

type trajectoryLine struct {
	PR      int               `json:"pr"`
	Commit  *string           `json:"commit"`
	Parent  string            `json:"parent"`
	Machine trajectoryStamp   `json:"machine"`
	Seconds float64           `json:"seconds"`
	Results []trajectoryPoint `json:"results"`
}

type trajectoryStamp struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

type trajectoryPoint struct {
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Ratio    float64  `json:"ratio"`
	Spread   *float64 `json:"spread"`
	Pairs    int      `json:"pairs"`
	Verdict  string   `json:"verdict"`
	Claimed  bool     `json:"claimed"`
}

// exactKeys reports an error unless raw is an object holding exactly
// the named keys, with null allowed only for those in nullable.
func exactKeys(raw json.RawMessage, names []string, nullable ...string) error {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		return err
	}
	if len(obj) != len(names) {
		return fmt.Errorf("%d keys, want exactly %v", len(obj), names)
	}
	for _, k := range names {
		v, ok := obj[k]
		if !ok {
			return fmt.Errorf("key %q missing", k)
		}
		if string(v) == "null" && !slices.Contains(nullable, k) {
			return fmt.Errorf("key %q is null", k)
		}
	}
	return nil
}

// TestBenchTrajectory checks BENCH_trajectory.jsonl: strict keys (every
// key present, none unknown, only commit and spread null), lines in
// increasing order of pr, workloads and end-to-end metrics that
// BENCHMARK.json declares, and on every claimed metric at least ten
// pairs, an "ok" verdict and a ratio on the metric's better side.
func TestBenchTrajectory(t *testing.T) {
	spec, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }         `json:"workloads"`
		EndToEnd  []struct{ Name, Better string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(spec, &bench); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	better := map[string]string{}
	for _, m := range bench.EndToEnd {
		better[m.Name] = m.Better
	}

	data, err := os.ReadFile("BENCH_trajectory.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	hash := regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	verdicts := map[string]bool{"ok": true, "regressed": true, "unresolved": true}
	lastPR := 0
	for i, text := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		n := i + 1
		var raw struct {
			Machine json.RawMessage
			Results []json.RawMessage
		}
		var l trajectoryLine
		err := exactKeys([]byte(text), []string{"pr", "commit", "parent", "machine", "seconds", "results"}, "commit")
		if err == nil {
			err = json.Unmarshal([]byte(text), &raw)
		}
		if err == nil {
			err = exactKeys(raw.Machine, []string{"go", "goos", "goarch", "num_cpu", "gomaxprocs"})
		}
		for _, r := range raw.Results {
			if err == nil {
				err = exactKeys(r, []string{"workload", "metric", "ratio", "spread", "pairs", "verdict", "claimed"}, "spread")
			}
		}
		if err == nil {
			err = json.Unmarshal([]byte(text), &l)
		}
		if err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if l.PR <= lastPR {
			t.Fatalf("line %d: pr %d does not follow pr %d", n, l.PR, lastPR)
		}
		lastPR = l.PR
		if !hash.MatchString(l.Parent) || (l.Commit != nil && !hash.MatchString(*l.Commit)) {
			t.Fatalf("line %d: commit and parent must be abbreviated hashes", n)
		}
		if m := l.Machine; m.Go == "" || m.GOOS == "" || m.GOARCH == "" || m.NumCPU < 1 || m.GOMAXPROCS < 1 || l.Seconds <= 0 || len(l.Results) == 0 {
			t.Fatalf("line %d: empty machine stamp, run length or results", n)
		}
		for _, p := range l.Results {
			dir, known := better[p.Metric]
			if !workloads[p.Workload] || !known {
				t.Fatalf("line %d: %s/%s is not a workload and end-to-end metric of BENCHMARK.json", n, p.Workload, p.Metric)
			}
			if !verdicts[p.Verdict] || p.Ratio <= 0 || p.Pairs < 1 {
				t.Fatalf("line %d: %s/%s: verdict %q, ratio %v, %d pairs", n, p.Workload, p.Metric, p.Verdict, p.Ratio, p.Pairs)
			}
			gained := p.Ratio != 1 && (dir == "higher") == (p.Ratio > 1)
			if p.Claimed && (p.Pairs < 10 || p.Verdict != "ok" || !gained) {
				t.Fatalf("line %d: claimed %s/%s needs ≥ 10 pairs, verdict ok and a ratio on the %s side; has %d, %q, %v",
					n, p.Workload, p.Metric, dir, p.Pairs, p.Verdict, p.Ratio)
			}
		}
	}
}
