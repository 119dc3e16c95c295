package experiment

import (
	"fmt"
	"testing"
)

// These golden-string tests pin the exact rendering of every report
// section on small synthetic records, so a drive-by format change
// (column order, width, units) is a deliberate diff, not an accident.

// intervalRec builds an interval-sweep record fixture: the totals plus
// per-concurrency (FP, FP-) pairs.
func intervalRec(config string, fp, fpHealthy, msgs, bytes float64, byC map[int][2]float64) Record {
	m := map[string]float64{"fp": fp, "fp_healthy": fpHealthy, "msgs_sent": msgs, "bytes_sent": bytes}
	for c, v := range byC {
		m[fmt.Sprintf("fp_c%d", c)] = v[0]
		m[fmt.Sprintf("fp_healthy_c%d", c)] = v[1]
	}
	return Record{Experiment: "interval-sweep", Config: config, Metrics: m}
}

// fmtIntervalFixture is shared by the Table IV/VI and Figure 2/3
// goldens.
func fmtIntervalFixture() []Record {
	return []Record{
		intervalRec("SWIM", 100, 40, 2_000_000, 3<<30, map[int][2]float64{4: {60, 25}, 12: {40, 15}}),
		intervalRec("Lifeguard", 25, 10, 2_200_000, 3_500_000_000, map[int][2]float64{4: {15, 6}, 12: {10, 4}}),
	}
}

// sampleIntervalFixture is a second interval fixture with a wide FP
// ratio and different concurrency levels.
func sampleIntervalFixture() []Record {
	return []Record{
		intervalRec("SWIM", 1000, 40, 2_000_000, 3<<30, map[int][2]float64{4: {400, 10}, 16: {600, 30}}),
		intervalRec("Lifeguard", 20, 1, 2_200_000, 29<<27, map[int][2]float64{4: {5, 0}, 16: {15, 1}}),
	}
}

func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s rendering changed:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestFormatTable4Golden(t *testing.T) {
	want := "" +
		"Configuration      FP Events   FP- Events     FP %SWIM    FP- %SWIM\n" +
		"SWIM                     100           40       100.00       100.00\n" +
		"Lifeguard                 25           10        25.00        25.00\n"
	checkGolden(t, "Table4", renderTable4(fmtIntervalFixture()), want)
	// The empty case renders the header alone.
	wantEmpty := "Configuration      FP Events   FP- Events     FP %SWIM    FP- %SWIM\n"
	checkGolden(t, "Table4 empty", renderTable4(nil), wantEmpty)
}

func TestFormatTable4(t *testing.T) {
	want := "" +
		"Configuration      FP Events   FP- Events     FP %SWIM    FP- %SWIM\n" +
		"SWIM                    1000           40       100.00       100.00\n" +
		"Lifeguard                 20            1         2.00         2.50\n"
	checkGolden(t, "Table4 sample", renderTable4(sampleIntervalFixture()), want)
}

// thresholdRec builds a threshold-sweep record from its (median, p99,
// p99.9) first-detection and full-dissemination latencies.
func thresholdRec(config string, first, full [3]float64) Record {
	return Record{Experiment: "threshold-sweep", Config: config, Metrics: map[string]float64{
		"first_detect_median_s": first[0], "first_detect_p99_s": first[1], "first_detect_p999_s": first[2],
		"full_dissem_median_s": full[0], "full_dissem_p99_s": full[1], "full_dissem_p999_s": full[2],
	}}
}

func TestFormatTable5Golden(t *testing.T) {
	recs := []Record{
		thresholdRec("SWIM", [3]float64{1.5, 2.5, 3.5}, [3]float64{2, 4, 6}),
		thresholdRec("Lifeguard", [3]float64{1.25, 2, 3}, [3]float64{1.75, 3.5, 5}),
	}
	want := "" +
		"Configuration   Med 1stDet 99% 1stDet 99.9% 1stD Med FullDs 99% FullDs 99.9% FlDs\n" +
		"SWIM                  1.50       2.50       3.50       2.00       4.00       6.00\n" +
		"Lifeguard             1.25       2.00       3.00       1.75       3.50       5.00\n"
	checkGolden(t, "Table5", renderTable5(recs), want)
}

func TestFormatTable5(t *testing.T) {
	want := "" +
		"Configuration   Med 1stDet 99% 1stDet 99.9% 1stD Med FullDs 99% FullDs 99.9% FlDs\n" +
		"SWIM                 12.44      16.96      19.40      12.90      16.93      20.17\n"
	sample := []Record{thresholdRec("SWIM", [3]float64{12.44, 16.96, 19.4}, [3]float64{12.9, 16.93, 20.17})}
	checkGolden(t, "Table5 sample", renderTable5(sample), want)
}

func TestFormatTable6Golden(t *testing.T) {
	want := "" +
		"Configuration     Msgs Sent(M)     Bytes(GiB)   Msgs %SWIM  Bytes %SWIM\n" +
		"SWIM                     2.000          3.000       100.00       100.00\n" +
		"Lifeguard                2.200          3.260       110.00       108.65\n"
	checkGolden(t, "Table6", renderTable6(fmtIntervalFixture()), want)
}

func TestFormatTable6(t *testing.T) {
	want := "" +
		"Configuration     Msgs Sent(M)     Bytes(GiB)   Msgs %SWIM  Bytes %SWIM\n" +
		"SWIM                     2.000          3.000       100.00       100.00\n" +
		"Lifeguard                2.200          3.625       110.00       120.83\n"
	checkGolden(t, "Table6 sample", renderTable6(sampleIntervalFixture()), want)
}

// tuningRec builds a tuning-sweep record for one (α, β) cell; vals
// follow the row order of table7Rows.
func tuningRec(alpha, beta float64, vals ...float64) Record {
	m := map[string]float64{}
	for i, row := range table7Rows {
		m[row.key] = vals[i]
	}
	return Record{Experiment: "tuning-sweep", Config: "Lifeguard",
		Params: map[string]any{"alpha": alpha, "beta": beta}, Metrics: m}
}

func TestFormatTable7Golden(t *testing.T) {
	recs := []Record{
		tuningRec(2, 4, 110, 105, 95, 90, 85, 80, 20, 10),
		tuningRec(5, 6, 120, 115, 100, 95, 90, 85, 15, 5),
	}
	want := "" +
		"Metric       α=2,β=4 α=5,β=6\n" +
		"Med First      110.00   120.00\n" +
		"Med Full       105.00   115.00\n" +
		"99% First       95.00   100.00\n" +
		"99% Full        90.00    95.00\n" +
		"99.9% First     85.00    90.00\n" +
		"99.9% Full      80.00    85.00\n" +
		"FP              20.00    15.00\n" +
		"FP-             10.00     5.00\n"
	checkGolden(t, "Table7", renderTable7(recs), want)
}

func TestFormatTable7(t *testing.T) {
	sample := []Record{
		tuningRec(2, 2, 53.14, 0, 0, 0, 0, 0, 98.37, 31.15),
		tuningRec(5, 6, 100.08, 0, 0, 0, 0, 0, 1.53, 1.89),
	}
	wantSample := "" +
		"Metric       α=2,β=2 α=5,β=6\n" +
		"Med First       53.14   100.08\n" +
		"Med Full         0.00     0.00\n" +
		"99% First        0.00     0.00\n" +
		"99% Full         0.00     0.00\n" +
		"99.9% First      0.00     0.00\n" +
		"99.9% Full       0.00     0.00\n" +
		"FP              98.37     1.53\n" +
		"FP-             31.15     1.89\n"
	checkGolden(t, "Table7 sample", renderTable7(sample), wantSample)
}

func TestFormatFigure2Golden(t *testing.T) {
	total, healthy := fpByC("Total FP", "fp_c"), fpByC("FP at Healthy", "fp_healthy_c")
	wantTotal := "" +
		"Total FP by concurrent anomalies\n" +
		"Configuration        C=4     C=12\n" +
		"SWIM                  60       40\n" +
		"Lifeguard             15       10\n"
	checkGolden(t, "Figure2", total(fmtIntervalFixture()), wantTotal)
	wantHealthy := "" +
		"FP at Healthy by concurrent anomalies\n" +
		"Configuration        C=4     C=12\n" +
		"SWIM                  25       15\n" +
		"Lifeguard              6        4\n"
	checkGolden(t, "Figure3", healthy(fmtIntervalFixture()), wantHealthy)
}

func TestFormatFigure2(t *testing.T) {
	total, healthy := fpByC("Total FP", "fp_c"), fpByC("FP at Healthy", "fp_healthy_c")
	wantSampleTotal := "" +
		"Total FP by concurrent anomalies\n" +
		"Configuration        C=4     C=16\n" +
		"SWIM                 400      600\n" +
		"Lifeguard              5       15\n"
	checkGolden(t, "Figure2 sample", total(sampleIntervalFixture()), wantSampleTotal)
	wantSampleHealthy := "" +
		"FP at Healthy by concurrent anomalies\n" +
		"Configuration        C=4     C=16\n" +
		"SWIM                  10       30\n" +
		"Lifeguard              0        1\n"
	checkGolden(t, "Figure3 sample", healthy(sampleIntervalFixture()), wantSampleHealthy)
}

// stressRec builds a stress-sweep record for one stressed-member count.
func stressRec(config string, stressed int, fp, fpHealthy float64) Record {
	return Record{Experiment: "stress", Config: config, Params: map[string]any{"stressed": stressed},
		Metrics: map[string]float64{"fp": fp, "fp_healthy": fpHealthy}}
}

func TestFormatFigure1Golden(t *testing.T) {
	recs := []Record{
		stressRec("SWIM", 4, 12, 5), stressRec("SWIM", 16, 48, 20),
		stressRec("Lifeguard", 4, 1, 0), stressRec("Lifeguard", 16, 3, 1),
	}
	want := "" +
		"Series                            S=4     S=16\n" +
		"SWIM total FP                      12       48\n" +
		"SWIM FP@healthy                     5       20\n" +
		"Lifeguard total FP                  1        3\n" +
		"Lifeguard FP@healthy                0        1\n"
	checkGolden(t, "Figure1", renderFigure1(recs), want)
}

func TestFormatFigure1(t *testing.T) {
	want := "" +
		"Series                            S=4     S=16\n" +
		"SWIM total FP                      70      500\n" +
		"SWIM FP@healthy                     2        9\n"
	sample := []Record{stressRec("SWIM", 4, 70, 2), stressRec("SWIM", 16, 500, 9)}
	checkGolden(t, "Figure1 sample", renderFigure1(sample), want)
}

func TestFormatChurnGolden(t *testing.T) {
	r := Record{
		Experiment: "churn", Config: "Lifeguard",
		Params: map[string]any{"members": 2048, "duration_s": 30.0, "interval_s": 0.5},
		Metrics: map[string]float64{
			"fails": 15, "leaves": 15, "joins": 30, "detected_fails": 15,
			"first_detect_median_s": 18.6, "first_detect_max_s": 22.1,
			"fp": 0, "joins_seen": 480, "joins_sampled": 480,
		},
	}
	want := "" +
		"Churn: N=2048, 15 fails / 15 leaves / 30 joins over 30s (every 500ms)\n" +
		"crashes detected 15/15, first-detect median 18.60s max 22.10s; FP 0; joins seen 480/480 sampled views\n"
	checkGolden(t, "Churn", renderChurn([]Record{r}), want)
}

func TestFormatPartitionGolden(t *testing.T) {
	r := Record{
		Experiment: "partition", Config: "Lifeguard",
		Params: map[string]any{"members": 32, "size_a": 16, "duration_s": 60.0, "heal_budget_s": 120.0},
		Metrics: map[string]float64{
			"side_a_converged": 1, "side_b_converged": 1, "cross_declared_dead": 512,
			"remerged": 1, "remerge_s": 15.5,
		},
	}
	want := "" +
		"Partition: side A 16 members for 1m0s (heal budget 2m0s)\n" +
		"side A converged: true, side B converged: true, cross-side dead views: 512\n" +
		"re-merged 15.5s after healing\n"
	checkGolden(t, "Partition", renderPartition([]Record{r}), want)

	r.Metrics["remerged"], r.Metrics["remerge_s"] = 0, 0
	wantStuck := "" +
		"Partition: side A 16 members for 1m0s (heal budget 2m0s)\n" +
		"side A converged: true, side B converged: true, cross-side dead views: 512\n" +
		"did NOT re-merge within the heal budget\n"
	checkGolden(t, "Partition stuck", renderPartition([]Record{r}), wantStuck)
}

func TestFormatRestartGolden(t *testing.T) {
	rec := func(config string, fp, fpHealthy, median, msgs, bytes float64) Record {
		return Record{
			Experiment: "rolling-restart", Config: config,
			Params: map[string]any{"members": 32, "waves": 2, "per_wave": 4, "down_for_s": 10.0, "stagger_s": 2.0},
			Metrics: map[string]float64{
				"restarts": 8, "rejoined": 8, "fp": fp, "fp_healthy": fpHealthy,
				"rejoin_median_s": median, "rejoin_max_s": 0.8, "msgs_sent": msgs, "bytes_sent": bytes,
			},
		}
	}
	recs := []Record{rec("SWIM", 2, 1, 0.7, 7730, 800_000), rec("Lifeguard", 0, 0, 0.73, 7710, 790_000)}
	want := "" +
		"Rolling restart: N=32, 2 waves × 4 members, down 10s, stagger 2s\n" +
		"Config          Restarts  Rejoined   FP  FP- MedRejoin(s) MaxRejoin(s)       Msgs         MB\n" +
		"SWIM                   8         8    2    1         0.70         0.80       7730        0.8\n" +
		"Lifeguard              8         8    0    0         0.73         0.80       7710        0.8\n"
	checkGolden(t, "Restart", renderRestart(recs), want)
}

func TestFormatChaosGolden(t *testing.T) {
	rec := func(scenario, config string, m map[string]float64) Record {
		return Record{
			Experiment: "chaos", Config: config,
			Params: map[string]any{
				"scenario": scenario, "members": 32, "victims": 4, "crashes": 2,
				"fault_for_s": 24.0, "crash_at_s": 8.0,
			},
			Metrics: m,
		}
	}
	recs := []Record{
		rec("degraded", "SWIM", map[string]float64{
			"fp": 212, "fp_healthy": 180, "victim_deaths": 150, "crashes_detected": 2,
			"crash_detect_median_s": 4.25, "suspicions": 900, "refuted": 610, "refute_median_s": 1.5,
		}),
		rec("lossy-link", "Lifeguard", map[string]float64{
			"fp": 3, "fp_healthy": 1, "victim_deaths": 2, "crashes_detected": 1,
			"crash_detect_median_s": 6.5, "suspicions": 120, "refuted": 118, "refute_median_s": 0.75,
			"duplicated": 1200, "reordered": 3400,
		}),
	}
	want := "" +
		"Chaos matrix: N=32, 4 victims, 2 crashes, fault window 24s (crashes at +8s)\n" +
		"Scenario       Config           FP  FP- VicDie CrashOK  MedDet(s)   Susp  Refuted  MedRef(s)    Dup  Reord\n" +
		"degraded       SWIM            212  180    150    2/2        4.25    900      610       1.50      0      0\n" +
		"lossy-link     Lifeguard         3    1      2    1/2        6.50    120      118       0.75   1200   3400\n"
	checkGolden(t, "Chaos", renderChaos(recs), want)
}
