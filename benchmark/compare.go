package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// readReports reads a file of JSON lines and keeps the full report
// lines (those naming a workload), so the raw output of several runs
// can be concatenated into one file as is.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reports []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Workload == "" {
			continue
		}
		reports = append(reports, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("%s holds no report lines", path)
	}
	return reports, nil
}

// verdict classifies a change in one end-to-end metric: worse is the
// share of the base median by which the new median is worse (negative
// when better), noise the wider of the two sides' run-to-run spreads.
// A spread wider than the bound cannot resolve a change of the bound's
// size, so such a pairing is unresolved, not unchanged.
func verdict(worse, noise, bound float64) string {
	switch {
	case noise > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	}
	return "ok"
}

// compareFiles prints, per (workload, metric), the base and new medians
// over the runs in each file, their ratio, and for end-to-end metrics
// the verdict against the metric's bound. It reports whether any
// pairing regressed.
func compareFiles(w io.Writer, basePath, newPath string) (regressed bool, err error) {
	base, err := readReports(basePath)
	if err != nil {
		return false, err
	}
	next, err := readReports(newPath)
	if err != nil {
		return false, err
	}
	type key struct{ workload, metric string }
	collect := func(reports []report) map[key][]float64 {
		vals := make(map[key][]float64)
		for _, r := range reports {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				vals[k] = append(vals[k], m.Value)
			}
		}
		return vals
	}
	baseVals, newVals := collect(base), collect(next)

	defs := make(map[string]metricDef)
	for _, d := range allMetrics() {
		defs[d.Name] = d
	}
	var keys []key
	for k := range baseVals {
		if _, both := newVals[k]; both {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tnew/base\truns\tspread\tbound\tverdict")
	for _, k := range keys {
		d, known := defs[k.metric]
		if !known {
			continue
		}
		b, n := median(baseVals[k]), median(newVals[k])
		ratio := "-"
		if b != 0 {
			ratio = fmt.Sprintf("%.3f", n/b)
		}
		noise := max(spread(baseVals[k]), spread(newVals[k]))
		bound, v := "-", "-"
		if d.Bound > 0 && b != 0 {
			worse := (n - b) / b
			if d.Better == higher {
				worse = -worse
			}
			v = verdict(worse, noise, d.Bound)
			bound = fmt.Sprintf("%.2f", d.Bound)
			regressed = regressed || v == "regressed"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%s\t%d/%d\t%.3f\t%s\t%s\n",
			k.workload, k.metric, d.Unit, b, n, ratio, len(baseVals[k]), len(newVals[k]), noise, bound, v)
	}
	return regressed, tw.Flush()
}
