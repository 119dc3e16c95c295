package experiment

import (
	"testing"
	"time"

	"lifeguard/internal/stats"
)

// These golden-string tests pin the exact rendering of every report
// formatter on small synthetic results, so a drive-by format change
// (column order, width, units) is a deliberate diff, not an accident.

// fmtIntervalFixture is shared by the Table IV/VI and Figure 2/3
// goldens.
func fmtIntervalFixture() []IntervalSweepResult {
	return []IntervalSweepResult{
		{Config: ConfigSWIM, FP: 100, FPHealthy: 40, MsgsSent: 2_000_000, BytesSent: 3 << 30, Runs: 4,
			ByC: map[int]*IntervalCell{4: {FP: 60, FPHealthy: 25, Runs: 2}, 12: {FP: 40, FPHealthy: 15, Runs: 2}}},
		{Config: ConfigLifeguard, FP: 25, FPHealthy: 10, MsgsSent: 2_200_000, BytesSent: 3_500_000_000, Runs: 4,
			ByC: map[int]*IntervalCell{4: {FP: 15, FPHealthy: 6, Runs: 2}, 12: {FP: 10, FPHealthy: 4, Runs: 2}}},
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
	checkGolden(t, "Table4", FormatTable4(fmtIntervalFixture()), want)
	// The empty case renders the header alone.
	wantEmpty := "Configuration      FP Events   FP- Events     FP %SWIM    FP- %SWIM\n"
	checkGolden(t, "Table4 empty", FormatTable4(nil), wantEmpty)
}

func TestFormatTable5Golden(t *testing.T) {
	results := []ThresholdSweepResult{
		{Config: ConfigSWIM, FirstDetect: stats.Summary{Median: 1.5, P99: 2.5, P999: 3.5}, FullDissem: stats.Summary{Median: 2, P99: 4, P999: 6}},
		{Config: ConfigLifeguard, FirstDetect: stats.Summary{Median: 1.25, P99: 2, P999: 3}, FullDissem: stats.Summary{Median: 1.75, P99: 3.5, P999: 5}},
	}
	want := "" +
		"Configuration   Med 1stDet 99% 1stDet 99.9% 1stD Med FullDs 99% FullDs 99.9% FlDs\n" +
		"SWIM                  1.50       2.50       3.50       2.00       4.00       6.00\n" +
		"Lifeguard             1.25       2.00       3.00       1.75       3.50       5.00\n"
	checkGolden(t, "Table5", FormatTable5(results), want)
}

func TestFormatTable6Golden(t *testing.T) {
	want := "" +
		"Configuration     Msgs Sent(M)     Bytes(GiB)   Msgs %SWIM  Bytes %SWIM\n" +
		"SWIM                     2.000          3.000       100.00       100.00\n" +
		"Lifeguard                2.200          3.260       110.00       108.65\n"
	checkGolden(t, "Table6", FormatTable6(fmtIntervalFixture()), want)
}

func TestFormatTable7Golden(t *testing.T) {
	res := TuningSweepResult{Cells: []TuningCell{
		{Alpha: 2, Beta: 4, MedFirst: 110, MedFull: 105, P99First: 95, P99Full: 90, P999First: 85, P999Full: 80, FP: 20, FPHealthy: 10},
		{Alpha: 5, Beta: 6, MedFirst: 120, MedFull: 115, P99First: 100, P99Full: 95, P999First: 90, P999Full: 85, FP: 15, FPHealthy: 5},
	}}
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
	checkGolden(t, "Table7", FormatTable7(res), want)
}

func TestFormatFigure2Golden(t *testing.T) {
	wantTotal := "" +
		"Total FP by concurrent anomalies\n" +
		"Configuration        C=4     C=12\n" +
		"SWIM                  60       40\n" +
		"Lifeguard             15       10\n"
	checkGolden(t, "Figure2", FormatFigure2(fmtIntervalFixture(), false), wantTotal)
	wantHealthy := "" +
		"FP at Healthy by concurrent anomalies\n" +
		"Configuration        C=4     C=12\n" +
		"SWIM                  25       15\n" +
		"Lifeguard              6        4\n"
	checkGolden(t, "Figure3", FormatFigure2(fmtIntervalFixture(), true), wantHealthy)
}

func TestFormatFigure1Golden(t *testing.T) {
	results := []StressSweepResult{
		{Config: ConfigSWIM, ByCount: map[int]StressResult{4: {FP: 12, FPHealthy: 5}, 16: {FP: 48, FPHealthy: 20}}},
		{Config: ConfigLifeguard, ByCount: map[int]StressResult{4: {FP: 1, FPHealthy: 0}, 16: {FP: 3, FPHealthy: 1}}},
	}
	want := "" +
		"Series                            S=4     S=16\n" +
		"SWIM total FP                      12       48\n" +
		"SWIM FP@healthy                     5       20\n" +
		"Lifeguard total FP                  1        3\n" +
		"Lifeguard FP@healthy                0        1\n"
	checkGolden(t, "Figure1", FormatFigure1(results), want)
}

func TestFormatChurnGolden(t *testing.T) {
	r := ChurnResult{
		Params: ChurnParams{Interval: 500 * time.Millisecond, Duration: 30 * time.Second},
		N:      2048, Fails: 15, Leaves: 15, Joins: 30, DetectedFails: 15,
		FirstDetect: stats.Summary{Median: 18.6, Max: 22.1},
		JoinsSeen:   480, JoinsSampled: 480,
	}
	want := "" +
		"Churn: N=2048, 15 fails / 15 leaves / 30 joins over 30s (every 500ms)\n" +
		"crashes detected 15/15, first-detect median 18.60s max 22.10s; FP 0; joins seen 480/480 sampled views\n"
	checkGolden(t, "Churn", FormatChurn(r), want)
}

func TestFormatPartitionGolden(t *testing.T) {
	r := PartitionResult{
		Params:         PartitionParams{SizeA: 16, Duration: time.Minute, HealBudget: 2 * time.Minute},
		SideAConverged: true, SideBConverged: true, CrossDeclaredDead: 512,
		Remerged: true, RemergeTime: 15500 * time.Millisecond,
	}
	want := "" +
		"Partition: side A 16 members for 1m0s (heal budget 2m0s)\n" +
		"side A converged: true, side B converged: true, cross-side dead views: 512\n" +
		"re-merged 15.5s after healing\n"
	checkGolden(t, "Partition", FormatPartition(r), want)

	r.Remerged, r.RemergeTime = false, 0
	wantStuck := "" +
		"Partition: side A 16 members for 1m0s (heal budget 2m0s)\n" +
		"side A converged: true, side B converged: true, cross-side dead views: 512\n" +
		"did NOT re-merge within the heal budget\n"
	checkGolden(t, "Partition stuck", FormatPartition(r), wantStuck)
}

func TestFormatRestartGolden(t *testing.T) {
	r := RestartResult{
		Params: RestartParams{N: 32, Waves: 2, PerWave: 4},
		Cells: []RestartCellResult{
			{Config: "SWIM", Restarts: 8, Rejoined: 8, FP: 2, FPHealthy: 1,
				RejoinConverge: stats.Summary{Median: 0.7, Max: 0.8}, MsgsSent: 7730, BytesSent: 800_000},
			{Config: "Lifeguard", Restarts: 8, Rejoined: 8,
				RejoinConverge: stats.Summary{Median: 0.73, Max: 0.8}, MsgsSent: 7710, BytesSent: 790_000},
		},
	}
	want := "" +
		"Rolling restart: N=32, 2 waves × 4 members, down 10s, stagger 2s\n" +
		"Config          Restarts  Rejoined   FP  FP- MedRejoin(s) MaxRejoin(s)       Msgs         MB\n" +
		"SWIM                   8         8    2    1         0.70         0.80       7730        0.8\n" +
		"Lifeguard              8         8    0    0         0.73         0.80       7710        0.8\n"
	checkGolden(t, "Restart", FormatRestart(r), want)
}
