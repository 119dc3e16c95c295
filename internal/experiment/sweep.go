package experiment

import "time"

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
//
// A scale is the one place a registered scenario is sized: every preset
// sets every field, and no driver reads a zero field as "use the
// default" (TestScaleSurface). What a scale does not size is a named
// constant beside its scenario.
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

	// ChaosN sizes the chaos scenario matrix's cluster.
	ChaosN int

	// ChaosFaultFor and ChaosSettle size the chaos matrix's fault
	// window and post-window settle phase.
	ChaosFaultFor, ChaosSettle time.Duration

	// Alphas and Betas are the suspicion-tuning grid (Table VII).
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

// ScaleSmoke is a minimal scale for tests: one cell per axis value that
// matters, single run.
var ScaleSmoke = Scale{
	Name:           "smoke",
	N:              48,
	Cs:             []int{4, 12},
	Ds:             []time.Duration{2048 * time.Millisecond, 16384 * time.Millisecond},
	Is:             []time.Duration{64 * time.Millisecond, 1024 * time.Millisecond},
	Runs:           1,
	StressCounts:   []int{4, 16},
	StressDuration: time.Minute,
	ChaosN:         32,
	ChaosFaultFor:  24 * time.Second,
	ChaosSettle:    24 * time.Second,
	Alphas:         []float64{5},
	Betas:          []float64{2, 6},
	ChurnN:         192,
	ChurnFor:       10 * time.Second,
	PartitionN:     24,
	RestartN:       32,
	RestartWaves:   2,
}

// ScaleBench is the default benchmark scale: the full C axis (needed for
// Figures 2/3), representative D and I values, one run each.
var ScaleBench = Scale{
	Name:           "bench",
	N:              DefaultN,
	Cs:             PaperCs,
	Ds:             []time.Duration{2048 * time.Millisecond, 16384 * time.Millisecond, 32768 * time.Millisecond},
	Is:             []time.Duration{64 * time.Millisecond, 1024 * time.Millisecond},
	Runs:           1,
	StressCounts:   PaperStressCounts,
	StressDuration: StressHorizon,
	ChaosN:         48,
	ChaosFaultFor:  60 * time.Second,
	ChaosSettle:    45 * time.Second,
	Alphas:         PaperAlphas,
	Betas:          PaperBetas,
	ChurnN:         512,
	ChurnFor:       30 * time.Second,
	PartitionN:     32,
	RestartN:       48,
	RestartWaves:   3,
}

// ScalePaper is the full grid of Tables II/III with the paper's 10
// repetitions. Expect hours of compute.
var ScalePaper = Scale{
	Name:           "paper",
	N:              DefaultN,
	Cs:             PaperCs,
	Ds:             PaperDs,
	Is:             PaperIs,
	Runs:           10,
	StressCounts:   PaperStressCounts,
	StressDuration: StressHorizon,
	ChaosN:         64,
	ChaosFaultFor:  2 * time.Minute,
	ChaosSettle:    time.Minute,
	Alphas:         PaperAlphas,
	Betas:          PaperBetas,
	ChurnN:         DefaultChurnN,
	ChurnFor:       time.Minute,
	PartitionN:     64,
	RestartN:       64,
	RestartWaves:   4,
}

// Progress receives sweep progress callbacks (done and total runs).
// It may be nil.
type Progress func(done, total int)

// intervalPoints enumerates the Interval grid of a scale in canonical
// (C-major) order. The index of a point is its seed-derivation index.
func intervalPoints(sc Scale) []intervalParams {
	points := make([]intervalParams, 0, len(sc.Cs)*len(sc.Ds)*len(sc.Is)*sc.Runs)
	for _, c := range sc.Cs {
		for _, d := range sc.Ds {
			for _, i := range sc.Is {
				for run := 0; run < sc.Runs; run++ {
					points = append(points, intervalParams{C: c, D: d, I: i})
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

// thresholdPoints enumerates the Threshold grid of a scale in canonical
// (C-major) order. The index of a point is its seed-derivation index.
func thresholdPoints(sc Scale) []thresholdParams {
	points := make([]thresholdParams, 0, len(sc.Cs)*len(sc.Ds)*sc.Runs)
	for _, c := range sc.Cs {
		for _, d := range sc.Ds {
			for run := 0; run < sc.Runs; run++ {
				points = append(points, thresholdParams{C: c, D: d})
			}
		}
	}
	return points
}

// thresholdSeed derives the cell seed for the idx-th point of a
// Threshold grid.
func thresholdSeed(base int64, idx int) int64 { return base + int64(idx)*999983 + 13 }

// stressSeed derives the cell seed for the i-th stressed-member count.
func stressSeed(base int64, i int) int64 { return base + int64(i)*104729 }
