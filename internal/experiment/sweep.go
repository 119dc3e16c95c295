package experiment

import (
	"time"

	"lifeguard/internal/stats"
)

// Paper sweep grids (Tables II and III).
var (
	// PaperCs is the concurrent-anomaly counts tested (Tables II/III).
	PaperCs = []int{1, 4, 8, 12, 16, 20, 24, 28, 32}

	// PaperDs is the anomaly durations tested, in milliseconds.
	PaperDs = []time.Duration{
		128 * time.Millisecond,
		512 * time.Millisecond,
		2048 * time.Millisecond,
		8192 * time.Millisecond,
		16384 * time.Millisecond,
		32768 * time.Millisecond,
	}

	// PaperIs is the intervals between anomalies tested (Table III).
	PaperIs = []time.Duration{
		1 * time.Millisecond,
		4 * time.Millisecond,
		16 * time.Millisecond,
		64 * time.Millisecond,
		256 * time.Millisecond,
		1024 * time.Millisecond,
		4096 * time.Millisecond,
		16384 * time.Millisecond,
	}

	// PaperAlphas and PaperBetas are the suspicion tunings of §V-C.
	PaperAlphas = []float64{2, 4, 5}
	PaperBetas  = []float64{2, 4, 6}

	// PaperStressCounts is Figure 1's x-axis (number of stressed
	// members).
	PaperStressCounts = []int{1, 4, 8, 12, 16, 20, 24, 28, 32}
)

// Scale selects how much of the paper's combinatorial space a sweep
// covers. The full grid is 432 interval runs and 54 threshold runs per
// configuration per repetition; reduced scales keep every qualitative
// axis while trimming repetition.
type Scale struct {
	// Name labels the scale in reports.
	Name string

	// N is the cluster size.
	N int

	// Cs, Ds, Is restrict the parameter grids.
	Cs []int
	Ds []time.Duration
	Is []time.Duration

	// Runs is the number of repetitions per parameter combination.
	Runs int

	// StressCounts restricts Figure 1's x-axis.
	StressCounts []int

	// StressDuration shortens Figure 1's 5-minute workload.
	StressDuration time.Duration

	// WANMembersPerZone sizes the WAN experiment's four zones.
	WANMembersPerZone int

	// WANConverge is the WAN experiment's coordinate-convergence phase.
	WANConverge time.Duration

	// ChaosN sizes the chaos scenario matrix's cluster.
	ChaosN int

	// ChaosFaultFor and ChaosSettle size the chaos matrix's fault
	// window and post-window settle phase.
	ChaosFaultFor, ChaosSettle time.Duration

	// Alphas and Betas restrict the suspicion-tuning grid (Table VII).
	// Empty means the paper's full PaperAlphas × PaperBetas grid.
	Alphas, Betas []float64

	// ChurnN sizes the churn scenario's cluster and ChurnFor its churn
	// phase.
	ChurnN   int
	ChurnFor time.Duration

	// PartitionN sizes the partition/heal scenario's cluster.
	PartitionN int

	// RestartN sizes the rolling-restart scenario's cluster and
	// RestartWaves its wave count.
	RestartN, RestartWaves int
}

// TuningGrid returns the scale's suspicion-tuning axes, defaulting to
// the paper's §V-C grid when the scale does not restrict them.
func (sc Scale) TuningGrid() (alphas, betas []float64) {
	alphas, betas = sc.Alphas, sc.Betas
	if len(alphas) == 0 {
		alphas = PaperAlphas
	}
	if len(betas) == 0 {
		betas = PaperBetas
	}
	return alphas, betas
}

// ScaleSmoke is a minimal scale for tests: one cell per axis value that
// matters, single run.
var ScaleSmoke = Scale{
	Name:              "smoke",
	N:                 48,
	Cs:                []int{4, 12},
	Ds:                []time.Duration{2048 * time.Millisecond, 16384 * time.Millisecond},
	Is:                []time.Duration{64 * time.Millisecond, 1024 * time.Millisecond},
	Runs:              1,
	StressCounts:      []int{4, 16},
	StressDuration:    time.Minute,
	WANMembersPerZone: 24,
	WANConverge:       2 * time.Minute,
	ChaosN:            32,
	ChaosFaultFor:     24 * time.Second,
	ChaosSettle:       24 * time.Second,
	Alphas:            []float64{5},
	Betas:             []float64{2, 6},
	ChurnN:            192,
	ChurnFor:          10 * time.Second,
	PartitionN:        24,
	RestartN:          32,
	RestartWaves:      2,
}

// ScaleBench is the default benchmark scale: the full C axis (needed for
// Figures 2/3), representative D and I values, one run each.
var ScaleBench = Scale{
	Name:              "bench",
	N:                 DefaultN,
	Cs:                PaperCs,
	Ds:                []time.Duration{2048 * time.Millisecond, 16384 * time.Millisecond, 32768 * time.Millisecond},
	Is:                []time.Duration{64 * time.Millisecond, 1024 * time.Millisecond},
	Runs:              1,
	StressCounts:      PaperStressCounts,
	StressDuration:    StressHorizon,
	WANMembersPerZone: 128,
	WANConverge:       5 * time.Minute,
	ChaosN:            48,
	ChaosFaultFor:     60 * time.Second,
	ChaosSettle:       45 * time.Second,
	ChurnN:            512,
	ChurnFor:          30 * time.Second,
	PartitionN:        32,
	RestartN:          48,
	RestartWaves:      3,
}

// ScalePaper is the full grid of Tables II/III with the paper's 10
// repetitions. Expect hours of compute.
var ScalePaper = Scale{
	Name:              "paper",
	N:                 DefaultN,
	Cs:                PaperCs,
	Ds:                PaperDs,
	Is:                PaperIs,
	Runs:              10,
	StressCounts:      PaperStressCounts,
	StressDuration:    StressHorizon,
	WANMembersPerZone: 256,
	WANConverge:       10 * time.Minute,
	ChaosN:            64,
	ChaosFaultFor:     2 * time.Minute,
	ChaosSettle:       time.Minute,
	ChurnN:            DefaultChurnN,
	ChurnFor:          time.Minute,
	PartitionN:        64,
	RestartN:          64,
	RestartWaves:      4,
}

// Progress receives sweep progress callbacks (done and total runs).
// It may be nil.
type Progress func(done, total int)

// IntervalSweepResult aggregates Interval runs for one configuration:
// the material for Table IV (FP totals), Table VI (message load) and
// Figures 2/3 (per-C breakdown).
type IntervalSweepResult struct {
	Config ProtocolConfig

	// FP and FPHealthy total false positives across the sweep.
	FP, FPHealthy int

	// MsgsSent and BytesSent total transport load across the sweep.
	MsgsSent, BytesSent int64

	// Runs is the number of experiments aggregated.
	Runs int

	// ByC breaks totals down by concurrent-anomaly count (Figures 2/3).
	ByC map[int]*IntervalCell
}

// IntervalCell is the per-C aggregate of an interval sweep.
type IntervalCell struct {
	// FP and FPHealthy total false positives at this concurrency.
	FP, FPHealthy int

	// Runs is the number of experiments at this concurrency.
	Runs int
}

// intervalPoints enumerates the Interval grid of a scale in canonical
// (C-major) order. The index of a point is its seed-derivation index.
func intervalPoints(sc Scale) []IntervalParams {
	points := make([]IntervalParams, 0, len(sc.Cs)*len(sc.Ds)*len(sc.Is)*sc.Runs)
	for _, c := range sc.Cs {
		for _, d := range sc.Ds {
			for _, i := range sc.Is {
				for run := 0; run < sc.Runs; run++ {
					points = append(points, IntervalParams{C: c, D: d, I: i})
				}
			}
		}
	}
	return points
}

// intervalSeed derives the cell seed for the idx-th point of an
// Interval grid. The formula is part of the record trajectory: changing
// it re-seeds every published interval number.
func intervalSeed(base int64, idx int) int64 { return base + int64(idx)*1000003 + 7 }

// aggregateInterval folds one configuration's per-point Interval
// results (in canonical grid order) into the sweep aggregate.
func aggregateInterval(proto ProtocolConfig, points []IntervalParams, results []IntervalResult) IntervalSweepResult {
	res := IntervalSweepResult{Config: proto, ByC: make(map[int]*IntervalCell)}
	for i, r := range results {
		cell := res.ByC[points[i].C]
		if cell == nil {
			cell = &IntervalCell{}
			res.ByC[points[i].C] = cell
		}
		res.FP += r.FP
		res.FPHealthy += r.FPHealthy
		res.MsgsSent += r.MsgsSent
		res.BytesSent += r.BytesSent
		res.Runs++
		cell.FP += r.FP
		cell.FPHealthy += r.FPHealthy
		cell.Runs++
	}
	return res
}

// ThresholdSweepResult aggregates Threshold runs for one configuration:
// the material for Table V.
type ThresholdSweepResult struct {
	Config ProtocolConfig

	// FirstDetect and FullDissem are percentile summaries over all
	// latency samples, in seconds.
	FirstDetect, FullDissem stats.Summary

	// Detected and Undetected count anomalies that did / did not become
	// failures (short anomalies refute in time by design).
	Detected, Undetected int

	// Runs is the number of experiments aggregated.
	Runs int
}

// thresholdPoints enumerates the Threshold grid of a scale in canonical
// (C-major) order. The index of a point is its seed-derivation index.
func thresholdPoints(sc Scale) []ThresholdParams {
	points := make([]ThresholdParams, 0, len(sc.Cs)*len(sc.Ds)*sc.Runs)
	for _, c := range sc.Cs {
		for _, d := range sc.Ds {
			for run := 0; run < sc.Runs; run++ {
				points = append(points, ThresholdParams{C: c, D: d})
			}
		}
	}
	return points
}

// thresholdSeed derives the cell seed for the idx-th point of a
// Threshold grid.
func thresholdSeed(base int64, idx int) int64 { return base + int64(idx)*999983 + 13 }

// aggregateThreshold folds one configuration's per-point Threshold
// results (in canonical grid order) into the sweep aggregate.
func aggregateThreshold(proto ProtocolConfig, results []ThresholdResult) ThresholdSweepResult {
	res := ThresholdSweepResult{Config: proto}
	var first, full []time.Duration
	for _, r := range results {
		first = append(first, r.FirstDetect...)
		full = append(full, r.FullDissem...)
		res.Detected += r.Detected
		res.Undetected += r.Undetected
		res.Runs++
	}
	res.FirstDetect = stats.Summarize(stats.DurationsToSeconds(first))
	res.FullDissem = stats.Summarize(stats.DurationsToSeconds(full))
	return res
}

// StressSweepResult aggregates the Figure-1 scenario for one
// configuration: FP and FP⁻ per stressed-member count.
type StressSweepResult struct {
	Config ProtocolConfig

	// ByCount maps stressed-member count to results.
	ByCount map[int]StressResult
}

// stressCounts returns the scale's Figure-1 x-axis, defaulting to the
// paper's counts.
func stressCounts(sc Scale) []int {
	if len(sc.StressCounts) == 0 {
		return PaperStressCounts
	}
	return sc.StressCounts
}

// stressSeed derives the cell seed for the i-th stressed-member count.
func stressSeed(base int64, i int) int64 { return base + int64(i)*104729 }

// TuningCell is one (α, β) cell of Table VII: Lifeguard's metrics as a
// percentage of the SWIM baseline from the same sweep grids.
type TuningCell struct {
	Alpha, Beta float64

	// Latency ratios (% of SWIM): median/99/99.9 of first detection and
	// full dissemination.
	MedFirst, MedFull, P99First, P99Full, P999First, P999Full float64

	// False positive ratios (% of SWIM).
	FP, FPHealthy float64
}

// TuningSweepResult is Table VII: one cell per (α, β) pair.
type TuningSweepResult struct {
	// Baseline summarizes the SWIM runs the percentages refer to.
	BaselineThreshold ThresholdSweepResult
	BaselineInterval  IntervalSweepResult

	// Cells holds one entry per (α, β), in sweep order.
	Cells []TuningCell
}

// tuningCell scores one (α, β) pair's sweeps against the SWIM baseline
// sweeps as Table VII percentages.
func tuningCell(alpha, beta float64, t, baseT ThresholdSweepResult, iv, baseI IntervalSweepResult) TuningCell {
	return TuningCell{
		Alpha:     alpha,
		Beta:      beta,
		MedFirst:  stats.PercentOf(t.FirstDetect.Median, baseT.FirstDetect.Median),
		MedFull:   stats.PercentOf(t.FullDissem.Median, baseT.FullDissem.Median),
		P99First:  stats.PercentOf(t.FirstDetect.P99, baseT.FirstDetect.P99),
		P99Full:   stats.PercentOf(t.FullDissem.P99, baseT.FullDissem.P99),
		P999First: stats.PercentOf(t.FirstDetect.P999, baseT.FirstDetect.P999),
		P999Full:  stats.PercentOf(t.FullDissem.P999, baseT.FullDissem.P999),
		FP:        stats.PercentOf(float64(iv.FP), float64(baseI.FP)),
		FPHealthy: stats.PercentOf(float64(iv.FPHealthy), float64(baseI.FPHealthy)),
	}
}
