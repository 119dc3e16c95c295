package experiment

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"lifeguard/internal/stats"
)

// This file renders every report section from its scenario's records,
// laid out as the paper's tables and figures for side-by-side reading.
// Every number a section prints is a record key (or a count of keys).

// seconds turns a record's seconds value into a Duration for display.
func seconds(v any) time.Duration {
	s, _ := v.(float64)
	return time.Duration(math.Round(s * float64(time.Second)))
}

// sortedInts returns a set's members in ascending order.
func sortedInts(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// renderTable4 lays the interval records out as Table IV. The first
// record is the SWIM baseline for the percentage columns.
func renderTable4(recs []Record, _ RunOptions) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %12s %12s %12s %12s\n",
		"Configuration", "FP Events", "FP- Events", "FP %SWIM", "FP- %SWIM")
	for _, r := range recs {
		m, base := r.Metrics, recs[0].Metrics
		fmt.Fprintf(&b, "%-15s %12.0f %12.0f %12.2f %12.2f\n",
			r.Config, m["fp"], m["fp_healthy"],
			stats.PercentOf(m["fp"], base["fp"]),
			stats.PercentOf(m["fp_healthy"], base["fp_healthy"]))
	}
	return b.String()
}

// renderTable5 lays the threshold records out as Table V (seconds).
func renderTable5(recs []Record, _ RunOptions) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %10s %10s %10s %10s %10s %10s\n",
		"Configuration",
		"Med 1stDet", "99% 1stDet", "99.9% 1stD",
		"Med FullDs", "99% FullDs", "99.9% FlDs")
	for _, r := range recs {
		fmt.Fprintf(&b, "%-15s", r.Config)
		for _, key := range []string{
			"first_detect_median_s", "first_detect_p99_s", "first_detect_p999_s",
			"full_dissem_median_s", "full_dissem_p99_s", "full_dissem_p999_s",
		} {
			fmt.Fprintf(&b, " %10.2f", r.Metrics[key])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// renderTable6 lays the interval records out as Table VI. The first
// record is the SWIM baseline for the percentage columns.
func renderTable6(recs []Record, _ RunOptions) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %14s %14s %12s %12s\n",
		"Configuration", "Msgs Sent(M)", "Bytes(GiB)", "Msgs %SWIM", "Bytes %SWIM")
	for _, r := range recs {
		m, base := r.Metrics, recs[0].Metrics
		fmt.Fprintf(&b, "%-15s %14.3f %14.3f %12.2f %12.2f\n",
			r.Config, m["msgs_sent"]/1e6, m["bytes_sent"]/(1<<30),
			stats.PercentOf(m["msgs_sent"], base["msgs_sent"]),
			stats.PercentOf(m["bytes_sent"], base["bytes_sent"]))
	}
	return b.String()
}

// table7Rows are Table VII's rows: each row's name, its tuning-record
// metric, and the sweep metric that record takes as a percentage of the
// SWIM baseline's.
var table7Rows = []struct{ name, key, src string }{
	{"Med First", "med_first_pct_swim", "first_detect_median_s"},
	{"Med Full", "med_full_pct_swim", "full_dissem_median_s"},
	{"99% First", "p99_first_pct_swim", "first_detect_p99_s"},
	{"99% Full", "p99_full_pct_swim", "full_dissem_p99_s"},
	{"99.9% First", "p999_first_pct_swim", "first_detect_p999_s"},
	{"99.9% Full", "p999_full_pct_swim", "full_dissem_p999_s"},
	{"FP", "fp_pct_swim", "fp"},
	{"FP-", "fp_healthy_pct_swim", "fp_healthy"},
}

// renderTable7 lays the tuning records out as Table VII: one column
// per (α, β), every cell a percentage of the SWIM baseline.
func renderTable7(recs []Record, _ RunOptions) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "Metric")
	for _, r := range recs {
		fmt.Fprintf(&b, " α=%g,β=%g", r.Params["alpha"], r.Params["beta"])
	}
	b.WriteByte('\n')
	for _, row := range table7Rows {
		fmt.Fprintf(&b, "%-12s", row.name)
		for _, r := range recs {
			fmt.Fprintf(&b, " %8.2f", r.Metrics[row.key])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fpByC renders one series of Figure 2 (total FP, prefix "fp_c") or
// Figure 3 (FP at healthy members, prefix "fp_healthy_c") from the
// interval records' per-concurrency metrics: one row per configuration,
// one column per concurrency level any record holds.
func fpByC(name, prefix string) func([]Record, RunOptions) string {
	return func(recs []Record, _ RunOptions) string {
		levels := map[int]bool{}
		for _, r := range recs {
			for key := range r.Metrics {
				if rest, ok := strings.CutPrefix(key, prefix); ok {
					if c, err := strconv.Atoi(rest); err == nil {
						levels[c] = true
					}
				}
			}
		}
		cs := sortedInts(levels)

		var b strings.Builder
		fmt.Fprintf(&b, "%s by concurrent anomalies\n%-15s", name, "Configuration")
		for _, c := range cs {
			fmt.Fprintf(&b, " %8s", fmt.Sprintf("C=%d", c))
		}
		b.WriteByte('\n')
		for _, r := range recs {
			fmt.Fprintf(&b, "%-15s", r.Config)
			for _, c := range cs {
				fmt.Fprintf(&b, " %8.0f", r.Metrics[prefix+strconv.Itoa(c)])
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
}

// renderFigure1 lays the stress records out as Figure 1: for each
// configuration, total FP and FP at healthy members per stressed-member
// count.
func renderFigure1(recs []Record, _ RunOptions) string {
	var configs []string
	byCount := map[string]map[int]map[string]float64{}
	levels := map[int]bool{}
	for _, r := range recs {
		s, _ := r.Params["stressed"].(int)
		if byCount[r.Config] == nil {
			configs = append(configs, r.Config)
			byCount[r.Config] = map[int]map[string]float64{}
		}
		byCount[r.Config][s] = r.Metrics
		levels[s] = true
	}
	cs := sortedInts(levels)

	var b strings.Builder
	fmt.Fprintf(&b, "%-28s", "Series")
	for _, c := range cs {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("S=%d", c))
	}
	b.WriteByte('\n')
	for _, config := range configs {
		for _, series := range []struct{ label, key string }{{" total FP", "fp"}, {" FP@healthy", "fp_healthy"}} {
			fmt.Fprintf(&b, "%-28s", config+series.label)
			for _, c := range cs {
				fmt.Fprintf(&b, " %8.0f", byCount[config][c][series.key])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// renderChaos lays the chaos records out as the ablation table: one
// row per cell with false positives, crash detection and refutation
// behaviour.
func renderChaos(recs []Record, _ RunOptions) string {
	var b strings.Builder
	p := recs[0].Params
	fmt.Fprintf(&b, "Chaos matrix: N=%d, %d victims, %d crashes, fault window %v (crashes at +%v)\n",
		p["members"], p["victims"], p["crashes"], seconds(p["fault_for_s"]), seconds(p["crash_at_s"]))
	fmt.Fprintf(&b, "%-14s %-14s %4s %4s %6s %7s %10s %6s %8s %10s %6s %6s\n",
		"Scenario", "Config", "FP", "FP-", "VicDie", "CrashOK", "MedDet(s)", "Susp", "Refuted", "MedRef(s)", "Dup", "Reord")
	for _, r := range recs {
		m := r.Metrics
		fmt.Fprintf(&b, "%-14s %-14s %4.0f %4.0f %6.0f %4.0f/%-2d %10.2f %6.0f %8.0f %10.2f %6.0f %6.0f\n",
			r.Params["scenario"], r.Config, m["fp"], m["fp_healthy"], m["victim_deaths"],
			m["crashes_detected"], r.Params["crashes"], m["crash_detect_median_s"],
			m["suspicions"], m["refuted"], m["refute_median_s"],
			m["duplicated"], m["reordered"])
	}
	return b.String()
}

// renderChurn renders the churn record: action counts, crash-detection
// latency, false positives and join convergence.
func renderChurn(recs []Record, _ RunOptions) string {
	p, m := recs[0].Params, recs[0].Metrics
	return fmt.Sprintf("Churn: N=%d, %.0f fails / %.0f leaves / %.0f joins over %v (every %v)\n"+
		"crashes detected %.0f/%.0f, first-detect median %.2fs max %.2fs; FP %.0f; joins seen %.0f/%.0f sampled views\n",
		p["members"], m["fails"], m["leaves"], m["joins"], seconds(p["duration_s"]), seconds(p["interval_s"]),
		m["detected_fails"], m["fails"], m["first_detect_median_s"], m["first_detect_max_s"],
		m["fp"], m["joins_seen"], m["joins_sampled"])
}

// renderPartition renders the partition record: per-side convergence
// during the split and the re-merge outcome.
func renderPartition(recs []Record, _ RunOptions) string {
	p, m := recs[0].Params, recs[0].Metrics
	out := fmt.Sprintf("Partition: side A %d members for %v (heal budget %v)\n"+
		"side A converged: %t, side B converged: %t, cross-side dead views: %.0f\n",
		p["size_a"], seconds(p["duration_s"]), seconds(p["heal_budget_s"]),
		m["side_a_converged"] == 1, m["side_b_converged"] == 1, m["cross_declared_dead"])
	if m["remerged"] == 1 {
		return out + fmt.Sprintf("re-merged %v after healing\n", seconds(m["remerge_s"]))
	}
	return out + "did NOT re-merge within the heal budget\n"
}

// renderRestart lays the rolling-restart records out as the
// per-configuration comparison table.
func renderRestart(recs []Record, _ RunOptions) string {
	var b strings.Builder
	p := recs[0].Params
	fmt.Fprintf(&b, "Rolling restart: N=%d, %d waves × %d members, down %v, stagger %v\n",
		p["members"], p["waves"], p["per_wave"], seconds(p["down_for_s"]), seconds(p["stagger_s"]))
	fmt.Fprintf(&b, "%-14s %9s %9s %4s %4s %12s %12s %10s %10s\n",
		"Config", "Restarts", "Rejoined", "FP", "FP-", "MedRejoin(s)", "MaxRejoin(s)", "Msgs", "MB")
	for _, r := range recs {
		m := r.Metrics
		fmt.Fprintf(&b, "%-14s %9.0f %9.0f %4.0f %4.0f %12.2f %12.2f %10.0f %10.1f\n",
			r.Config, m["restarts"], m["rejoined"], m["fp"], m["fp_healthy"],
			m["rejoin_median_s"], m["rejoin_max_s"], m["msgs_sent"], m["bytes_sent"]/1e6)
	}
	return b.String()
}
