package experiment

import (
	"fmt"
	"time"

	"lifeguard/internal/stats"
)

// This file lists every scenario the harness runs: how each plans its
// cells, folds their outputs into records, and which report sections it
// renders from those records (report.go).

// registry holds the scenarios in the canonical "all" run order.
var registry = []Scenario{
	{
		name:    "interval",
		desc:    "Interval sweeps over Table I: false positives and message load (Tables IV/VI, Figures 2/3)",
		plan:    planInterval,
		records: sweepRecords(intervalRecord),
		sections: []section{
			{"table4", "Table IV: aggregated false positives", renderTable4},
			{"fig2", "Figure 2: total FP vs concurrent anomalies", fpByC("Total FP", "fp_c")},
			{"fig3", "Figure 3: FP at healthy members vs concurrent anomalies", fpByC("FP at Healthy", "fp_healthy_c")},
			{"table6", "Table VI: message load", renderTable6},
		},
	},
	{
		name:     "threshold",
		desc:     "Threshold sweeps over Table I: detection and dissemination latency (Table V)",
		plan:     planThreshold,
		records:  sweepRecords(thresholdRecord),
		sections: []section{{"table5", "Table V: detection and dissemination latency (s)", renderTable5}},
	},
	{
		name:     "tuning",
		desc:     "Suspicion α/β grid against a SWIM baseline (Table VII)",
		plan:     planTuning,
		records:  tuningRecords,
		sections: []section{{"table7", "Table VII: performance as % of SWIM under α/β tunings", renderTable7}},
	},
	{
		name:     "stress",
		desc:     "CPU-exhaustion duty cycle, SWIM vs Lifeguard (Figure 1)",
		plan:     planStress,
		records:  cellRecords,
		sections: []section{{"fig1", "Figure 1: false positives from CPU exhaustion", renderFigure1}},
	},
	{
		name:     "wan",
		desc:     "Multi-zone WAN: coordinate accuracy and cross-zone detection, static vs adaptive",
		plan:     planWAN,
		records:  cellRecords,
		sections: []section{{"wan", "WAN: adaptive vs static topology-aware detection", renderWAN}},
	},
	{
		name:     "chaos",
		desc:     "Fault-scenario matrix (degraded, flapping, partitioned, lossy, combined) × Table I",
		plan:     planChaos,
		records:  cellRecords,
		sections: []section{{"chaos", "Chaos: fault-scenario matrix × protocol ablation", renderChaos}},
	},
	{
		name:     "churn",
		desc:     "Large cluster under continuous fail/join/leave membership change",
		plan:     planChurn,
		records:  cellRecords,
		sections: []section{{"churn", "Churn: continuous fail/join/leave at scale", renderChurn}},
	},
	{
		name:     "partition",
		desc:     "Full split and heal: independent operation and automatic re-merge (§II)",
		plan:     planPartition,
		records:  cellRecords,
		sections: []section{{"partition", "Partition: split, independent operation, heal and re-merge", renderPartition}},
	},
	{
		name:     "rolling-restart",
		desc:     "Members leave and rejoin in staggered waves, scored per Table I configuration",
		plan:     planRestart,
		records:  cellRecords,
		sections: []section{{"rolling-restart", "Rolling restart: staggered leave/rejoin waves", renderRestart}},
	},
}

// outsAs converts the executor's ordered outputs to a scenario's cell
// type. A mismatch is a harness programming error.
func outsAs[T any](outs []any) ([]T, error) {
	typed := make([]T, len(outs))
	for i, out := range outs {
		v, ok := out.(T)
		if !ok {
			return nil, fmt.Errorf("cell %d returned %T", i, out)
		}
		typed[i] = v
	}
	return typed, nil
}

// cellRecords is the records step of every scenario whose cells each
// return one output row: the records are the cell outputs, in plan
// order.
func cellRecords(_ RunOptions, outs []any) ([]Record, error) {
	return outsAs[Record](outs)
}

// sweepRecords is the records step of the interval and threshold
// sweeps: the outputs hold one equal block of runs per configuration
// of Configurations, in order, and fold folds each block into its
// configuration's record.
func sweepRecords[T any](fold func(ProtocolConfig, []T) Record) func(RunOptions, []any) ([]Record, error) {
	return func(_ RunOptions, outs []any) ([]Record, error) {
		runs, err := outsAs[T](outs)
		if err != nil {
			return nil, err
		}
		per := len(runs) / len(Configurations)
		recs := make([]Record, len(Configurations))
		for ci, proto := range Configurations {
			recs[ci] = fold(proto, runs[ci*per:(ci+1)*per])
		}
		return recs, nil
	}
}

// --- interval -------------------------------------------------------

// intervalCells enumerates one configuration's Interval grid in
// canonical order: the only place the grid becomes cells, shared by the
// interval and tuning scenarios.
func intervalCells(opt RunOptions, proto ProtocolConfig) []Cell {
	points := intervalPoints(opt.Scale)
	cells := make([]Cell, 0, len(points))
	for idx, p := range points {
		seed := intervalSeed(opt.Seed, idx)
		p := p
		cells = append(cells, Cell{
			Label: fmt.Sprintf("interval %s α=%g β=%g %d/%d", proto.Name, proto.Alpha, proto.Beta, idx+1, len(points)),
			Run: func() (any, error) {
				return RunInterval(ClusterConfig{N: opt.Scale.N, Seed: seed, Protocol: proto}, p)
			},
		})
	}
	return cells
}

func planInterval(opt RunOptions) ([]Cell, error) {
	var cells []Cell
	for _, proto := range Configurations {
		cells = append(cells, intervalCells(opt, proto)...)
	}
	return cells, nil
}

// intervalRecord folds one configuration's Interval runs into its
// sweep record: the totals behind Tables IV and VI, and per-C false
// positives (fp_c<C>, fp_healthy_c<C>) behind Figures 2/3.
func intervalRecord(proto ProtocolConfig, runs []IntervalResult) Record {
	m := map[string]float64{"fp": 0, "fp_healthy": 0, "msgs_sent": 0, "bytes_sent": 0, "runs": float64(len(runs))}
	for _, r := range runs {
		m["fp"] += float64(r.FP)
		m["fp_healthy"] += float64(r.FPHealthy)
		m["msgs_sent"] += float64(r.MsgsSent)
		m["bytes_sent"] += float64(r.BytesSent)
		m[fmt.Sprintf("fp_c%d", r.Params.C)] += float64(r.FP)
		m[fmt.Sprintf("fp_healthy_c%d", r.Params.C)] += float64(r.FPHealthy)
	}
	return Record{
		Experiment: "interval-sweep",
		Config:     proto.Name,
		Params:     map[string]any{"alpha": proto.Alpha, "beta": proto.Beta},
		Metrics:    m,
	}
}

// --- threshold ------------------------------------------------------

// thresholdCells enumerates one configuration's Threshold grid in
// canonical order, shared by the threshold and tuning scenarios.
func thresholdCells(opt RunOptions, proto ProtocolConfig) []Cell {
	points := thresholdPoints(opt.Scale)
	cells := make([]Cell, 0, len(points))
	for idx, p := range points {
		seed := thresholdSeed(opt.Seed, idx)
		p := p
		cells = append(cells, Cell{
			Label: fmt.Sprintf("threshold %s α=%g β=%g %d/%d", proto.Name, proto.Alpha, proto.Beta, idx+1, len(points)),
			Run: func() (any, error) {
				return RunThreshold(ClusterConfig{N: opt.Scale.N, Seed: seed, Protocol: proto}, p)
			},
		})
	}
	return cells
}

func planThreshold(opt RunOptions) ([]Cell, error) {
	var cells []Cell
	for _, proto := range Configurations {
		cells = append(cells, thresholdCells(opt, proto)...)
	}
	return cells, nil
}

// thresholdRecord folds one configuration's Threshold runs into its
// sweep record: Table V's percentiles over the pooled latency samples,
// and the anomalies that did / did not become failures (short
// anomalies refute in time by design).
func thresholdRecord(proto ProtocolConfig, runs []ThresholdResult) Record {
	var first, full []time.Duration
	detected, undetected := 0, 0
	for _, r := range runs {
		first = append(first, r.FirstDetect...)
		full = append(full, r.FullDissem...)
		detected += r.Detected
		undetected += r.Undetected
	}
	fd := stats.Summarize(stats.DurationsToSeconds(first))
	fl := stats.Summarize(stats.DurationsToSeconds(full))
	return Record{
		Experiment: "threshold-sweep",
		Config:     proto.Name,
		Params:     map[string]any{"alpha": proto.Alpha, "beta": proto.Beta},
		Metrics: map[string]float64{
			"first_detect_median_s": fd.Median,
			"first_detect_p99_s":    fd.P99,
			"first_detect_p999_s":   fd.P999,
			"full_dissem_median_s":  fl.Median,
			"full_dissem_p99_s":     fl.P99,
			"full_dissem_p999_s":    fl.P999,
			"detected":              float64(detected),
			"undetected":            float64(undetected),
			"runs":                  float64(len(runs)),
		},
	}
}

// --- tuning ---------------------------------------------------------

// tuningProtos lists the tuning scenario's configuration axis: the
// SWIM baseline first, then Lifeguard at every (α, β) of the grid.
func tuningProtos(alphas, betas []float64) []ProtocolConfig {
	protos := []ProtocolConfig{ConfigSWIM}
	for _, alpha := range alphas {
		for _, beta := range betas {
			proto := ConfigLifeguard
			proto.Alpha, proto.Beta = alpha, beta
			protos = append(protos, proto)
		}
	}
	return protos
}

func planTuning(opt RunOptions) ([]Cell, error) {
	var cells []Cell
	for _, proto := range tuningProtos(opt.Scale.TuningGrid()) {
		cells = append(cells, thresholdCells(opt, proto)...)
		cells = append(cells, intervalCells(opt, proto)...)
	}
	return cells, nil
}

// tuningPct maps each Table VII metric to the sweep metric it takes as
// a percentage of the SWIM baseline's.
var tuningPct = map[string]string{
	"med_first_pct_swim":  "first_detect_median_s",
	"med_full_pct_swim":   "full_dissem_median_s",
	"p99_first_pct_swim":  "first_detect_p99_s",
	"p99_full_pct_swim":   "full_dissem_p99_s",
	"p999_first_pct_swim": "first_detect_p999_s",
	"p999_full_pct_swim":  "full_dissem_p999_s",
	"fp_pct_swim":         "fp",
	"fp_healthy_pct_swim": "fp_healthy",
}

// tuningRecords scores every (α, β) configuration's threshold and
// interval sweeps against the SWIM baseline's: one Table VII record
// per pair, in grid order.
func tuningRecords(opt RunOptions, outs []any) ([]Record, error) {
	protos := tuningProtos(opt.Scale.TuningGrid())
	nT := len(thresholdPoints(opt.Scale))
	per := nT + len(intervalPoints(opt.Scale))
	if len(outs) != len(protos)*per {
		return nil, fmt.Errorf("tuning: %d outputs for %d cells", len(outs), len(protos)*per)
	}
	// sweep folds one configuration's block into its threshold and
	// interval metrics, merged: the one key they share, runs, is not a
	// Table VII input.
	sweep := func(ci int) (map[string]float64, error) {
		block := outs[ci*per : (ci+1)*per]
		tRuns, err := outsAs[ThresholdResult](block[:nT])
		if err != nil {
			return nil, err
		}
		iRuns, err := outsAs[IntervalResult](block[nT:])
		if err != nil {
			return nil, err
		}
		m := thresholdRecord(protos[ci], tRuns).Metrics
		for k, v := range intervalRecord(protos[ci], iRuns).Metrics {
			m[k] = v
		}
		return m, nil
	}
	base, err := sweep(0)
	if err != nil {
		return nil, err
	}
	recs := make([]Record, 0, len(protos)-1)
	for ci := 1; ci < len(protos); ci++ {
		m, err := sweep(ci)
		if err != nil {
			return nil, err
		}
		pct := make(map[string]float64, len(tuningPct))
		for key, src := range tuningPct {
			pct[key] = stats.PercentOf(m[src], base[src])
		}
		recs = append(recs, Record{
			Experiment: "tuning-sweep",
			Config:     "Lifeguard",
			Params:     map[string]any{"alpha": protos[ci].Alpha, "beta": protos[ci].Beta},
			Metrics:    pct,
		})
	}
	return recs, nil
}

// --- stress ---------------------------------------------------------

// stressProtos is the Figure-1 configuration axis.
var stressProtos = []ProtocolConfig{ConfigSWIM, ConfigLifeguard}

func planStress(opt RunOptions) ([]Cell, error) {
	counts := stressCounts(opt.Scale)
	cells := make([]Cell, 0, len(stressProtos)*len(counts))
	for _, proto := range stressProtos {
		proto := proto
		for i, count := range counts {
			seed := stressSeed(opt.Seed, i)
			count := count
			cells = append(cells, Cell{
				Label: fmt.Sprintf("stress %s S=%d", proto.Name, count),
				Run: func() (any, error) {
					return RunStress(
						ClusterConfig{N: StressN, Seed: seed, Protocol: proto},
						StressParams{Stressed: count, Duration: opt.Scale.StressDuration})
				},
			})
		}
	}
	return cells, nil
}

// --- wan ------------------------------------------------------------

// wanParams sizes the WAN scenario from the scale: the canonical four
// zones, three members crashed in each.
func wanParams(opt RunOptions) WANParams {
	zones, pairs := DefaultWANZones(opt.Scale.WANMembersPerZone)
	return WANParams{
		Zones:       zones,
		Pairs:       pairs,
		Converge:    opt.Scale.WANConverge,
		FailPerZone: 3,
	}
}

func planWAN(opt RunOptions) ([]Cell, error) {
	cc := ClusterConfig{Seed: opt.Seed, Protocol: ConfigLifeguard, Telemetry: true}
	return wanCells(cc, wanParams(opt)), nil
}

// --- chaos ----------------------------------------------------------

// chaosParams sizes the chaos scenario from the scale; RunChaosCell
// applies the defaults for the rest.
func chaosParams(opt RunOptions) ChaosParams {
	return ChaosParams{
		N:        opt.Scale.ChaosN,
		FaultFor: opt.Scale.ChaosFaultFor,
		Settle:   opt.Scale.ChaosSettle,
	}
}

func planChaos(opt RunOptions) ([]Cell, error) {
	return chaosCells(ClusterConfig{Seed: opt.Seed}, chaosParams(opt)), nil
}

// --- churn ----------------------------------------------------------

func planChurn(opt RunOptions) ([]Cell, error) {
	return []Cell{{
		Label: "churn",
		Run: func() (any, error) {
			return RunChurn(
				ClusterConfig{N: opt.Scale.ChurnN, Seed: opt.Seed, Protocol: ConfigLifeguard},
				ChurnParams{Duration: opt.Scale.ChurnFor})
		},
	}}, nil
}

// --- partition ------------------------------------------------------

func planPartition(opt RunOptions) ([]Cell, error) {
	return []Cell{{
		Label: "partition",
		Run: func() (any, error) {
			return RunPartition(
				ClusterConfig{N: opt.Scale.PartitionN, Seed: opt.Seed, Protocol: ConfigLifeguard},
				PartitionParams{})
		},
	}}, nil
}

// --- rolling-restart ------------------------------------------------

// restartParams sizes the rolling-restart scenario from the scale;
// RunRestartCell applies the defaults for the rest.
func restartParams(opt RunOptions) RestartParams {
	return RestartParams{N: opt.Scale.RestartN, Waves: opt.Scale.RestartWaves}
}

func planRestart(opt RunOptions) ([]Cell, error) {
	return restartCells(ClusterConfig{Seed: opt.Seed}, restartParams(opt)), nil
}
