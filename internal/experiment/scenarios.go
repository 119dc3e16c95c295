package experiment

import (
	"fmt"
	"sort"
)

// This file lists every experiment driver for the scenario harness and
// builds their machine-readable records.

// registry holds the scenarios in the canonical "all" run order.
var registry = []Scenario{
	{
		name:   "interval",
		desc:   "Interval sweeps over Table I: false positives and message load (Tables IV/VI, Figures 2/3)",
		plan:   planInterval,
		report: reportInterval,
	},
	{
		name:   "threshold",
		desc:   "Threshold sweeps over Table I: detection and dissemination latency (Table V)",
		plan:   planThreshold,
		report: reportThreshold,
	},
	{
		name:   "tuning",
		desc:   "Suspicion α/β grid against a SWIM baseline (Table VII)",
		plan:   planTuning,
		report: reportTuning,
	},
	{
		name:   "stress",
		desc:   "CPU-exhaustion duty cycle, SWIM vs Lifeguard (Figure 1)",
		plan:   planStress,
		report: reportStress,
	},
	{
		name:   "wan",
		desc:   "Multi-zone WAN: coordinate accuracy and cross-zone detection, static vs adaptive",
		plan:   planWAN,
		report: reportWAN,
	},
	{
		name:   "chaos",
		desc:   "Fault-scenario matrix (degraded, flapping, partitioned, lossy, combined) × Table I",
		plan:   planChaos,
		report: reportChaos,
	},
	{
		name:   "churn",
		desc:   "Large cluster under continuous fail/join/leave membership change",
		plan:   planChurn,
		report: reportChurn,
	},
	{
		name:   "partition",
		desc:   "Full split and heal: independent operation and automatic re-merge (§II)",
		plan:   planPartition,
		report: reportPartition,
	},
	{
		name:   "rolling-restart",
		desc:   "Members leave and rejoin in staggered waves, scored per Table I configuration",
		plan:   planRestart,
		report: reportRestart,
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

func reportInterval(opt RunOptions, outs []any) (ScenarioResult, error) {
	runs, err := outsAs[IntervalResult](outs)
	if err != nil {
		return ScenarioResult{}, err
	}
	points := intervalPoints(opt.Scale)
	results := make([]IntervalSweepResult, 0, len(Configurations))
	for ci, proto := range Configurations {
		results = append(results, aggregateInterval(proto, points, runs[ci*len(points):(ci+1)*len(points)]))
	}
	return ScenarioResult{
		Records: intervalRecords(results),
		Sections: []Section{
			{Key: "table4", Title: "Table IV: aggregated false positives", Body: FormatTable4(results)},
			{Key: "fig2", Title: "Figure 2: total FP vs concurrent anomalies", Body: FormatFigure2(results, false)},
			{Key: "fig3", Title: "Figure 3: FP at healthy members vs concurrent anomalies", Body: FormatFigure2(results, true)},
			{Key: "table6", Title: "Table VI: message load", Body: FormatTable6(results)},
		},
	}, nil
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

func reportThreshold(opt RunOptions, outs []any) (ScenarioResult, error) {
	runs, err := outsAs[ThresholdResult](outs)
	if err != nil {
		return ScenarioResult{}, err
	}
	per := len(thresholdPoints(opt.Scale))
	results := make([]ThresholdSweepResult, 0, len(Configurations))
	for ci, proto := range Configurations {
		results = append(results, aggregateThreshold(proto, runs[ci*per:(ci+1)*per]))
	}
	return ScenarioResult{
		Records: thresholdRecords(results),
		Sections: []Section{
			{Key: "table5", Title: "Table V: detection and dissemination latency (s)", Body: FormatTable5(results)},
		},
	}, nil
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

func reportTuning(opt RunOptions, outs []any) (ScenarioResult, error) {
	protos := tuningProtos(opt.Scale.TuningGrid())
	tPoints := thresholdPoints(opt.Scale)
	iPoints := intervalPoints(opt.Scale)
	per := len(tPoints) + len(iPoints)
	if len(outs) != len(protos)*per {
		return ScenarioResult{}, fmt.Errorf("tuning: %d outputs for %d cells", len(outs), len(protos)*per)
	}
	aggregate := func(ci int, proto ProtocolConfig) (ThresholdSweepResult, IntervalSweepResult, error) {
		block := outs[ci*per : (ci+1)*per]
		tRuns, err := outsAs[ThresholdResult](block[:len(tPoints)])
		if err != nil {
			return ThresholdSweepResult{}, IntervalSweepResult{}, err
		}
		iRuns, err := outsAs[IntervalResult](block[len(tPoints):])
		if err != nil {
			return ThresholdSweepResult{}, IntervalSweepResult{}, err
		}
		return aggregateThreshold(proto, tRuns), aggregateInterval(proto, iPoints, iRuns), nil
	}
	baseT, baseI, err := aggregate(0, protos[0])
	if err != nil {
		return ScenarioResult{}, err
	}
	res := TuningSweepResult{BaselineThreshold: baseT, BaselineInterval: baseI}
	for ci, proto := range protos[1:] {
		t, iv, err := aggregate(ci+1, proto)
		if err != nil {
			return ScenarioResult{}, err
		}
		res.Cells = append(res.Cells, tuningCell(proto.Alpha, proto.Beta, t, baseT, iv, baseI))
	}
	return ScenarioResult{
		Records: tuningRecords(res),
		Sections: []Section{
			{Key: "table7", Title: "Table VII: performance as % of SWIM under α/β tunings", Body: FormatTable7(res)},
		},
	}, nil
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

func reportStress(opt RunOptions, outs []any) (ScenarioResult, error) {
	runs, err := outsAs[StressResult](outs)
	if err != nil {
		return ScenarioResult{}, err
	}
	counts := stressCounts(opt.Scale)
	results := make([]StressSweepResult, 0, len(stressProtos))
	for ci, proto := range stressProtos {
		r := StressSweepResult{Config: proto, ByCount: make(map[int]StressResult)}
		for i, count := range counts {
			r.ByCount[count] = runs[ci*len(counts)+i]
		}
		results = append(results, r)
	}
	return ScenarioResult{
		Records: stressRecords(results),
		Sections: []Section{
			{Key: "fig1", Title: "Figure 1: false positives from CPU exhaustion", Body: FormatFigure1(results)},
		},
	}, nil
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

func reportWAN(opt RunOptions, outs []any) (ScenarioResult, error) {
	cmp, err := wanComparison(outs)
	if err != nil {
		return ScenarioResult{}, err
	}
	return ScenarioResult{
		Records: []Record{wanRecord(cmp.Static, false), wanRecord(cmp.Adaptive, true)},
		Sections: []Section{
			{Key: "wan", Title: "WAN: adaptive vs static topology-aware detection", Body: FormatWANComparison(cmp)},
		},
	}, nil
}

// --- chaos ----------------------------------------------------------

// chaosParams sizes the chaos scenario from the scale; chaosCells and
// chaosResult apply the defaults for the rest.
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

func reportChaos(opt RunOptions, outs []any) (ScenarioResult, error) {
	res, err := chaosResult(chaosParams(opt), outs)
	if err != nil {
		return ScenarioResult{}, err
	}
	return ScenarioResult{
		Records: chaosRecords(res),
		Sections: []Section{
			{Key: "chaos", Title: "Chaos: fault-scenario matrix × protocol ablation", Body: FormatChaos(res)},
		},
	}, nil
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

func reportChurn(opt RunOptions, outs []any) (ScenarioResult, error) {
	runs, err := outsAs[ChurnResult](outs)
	if err != nil {
		return ScenarioResult{}, err
	}
	r := runs[0]
	return ScenarioResult{
		Records: []Record{churnRecord(r)},
		Sections: []Section{
			{Key: "churn", Title: "Churn: continuous fail/join/leave at scale", Body: FormatChurn(r)},
		},
	}, nil
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

func reportPartition(opt RunOptions, outs []any) (ScenarioResult, error) {
	runs, err := outsAs[PartitionResult](outs)
	if err != nil {
		return ScenarioResult{}, err
	}
	r := runs[0]
	return ScenarioResult{
		Records: []Record{partitionRecord(opt.Scale.PartitionN, r)},
		Sections: []Section{
			{Key: "partition", Title: "Partition: split, independent operation, heal and re-merge", Body: FormatPartition(r)},
		},
	}, nil
}

// --- rolling-restart ------------------------------------------------

// restartParams sizes the rolling-restart scenario from the scale;
// restartCells and restartResult apply the defaults for the rest.
func restartParams(opt RunOptions) RestartParams {
	return RestartParams{N: opt.Scale.RestartN, Waves: opt.Scale.RestartWaves}
}

func planRestart(opt RunOptions) ([]Cell, error) {
	return restartCells(ClusterConfig{Seed: opt.Seed}, restartParams(opt)), nil
}

func reportRestart(opt RunOptions, outs []any) (ScenarioResult, error) {
	res, err := restartResult(restartParams(opt), outs)
	if err != nil {
		return ScenarioResult{}, err
	}
	return ScenarioResult{
		Records: restartRecords(res),
		Sections: []Section{
			{Key: "rolling-restart", Title: "Rolling restart: staggered leave/rejoin waves", Body: FormatRestart(res)},
		},
	}, nil
}

// --- record builders ------------------------------------------------

func intervalRecords(results []IntervalSweepResult) []Record {
	out := make([]Record, 0, len(results))
	for _, r := range results {
		rec := Record{
			Experiment: "interval-sweep",
			Config:     r.Config.Name,
			Params:     map[string]any{"alpha": r.Config.Alpha, "beta": r.Config.Beta},
			Metrics: map[string]float64{
				"fp":         float64(r.FP),
				"fp_healthy": float64(r.FPHealthy),
				"msgs_sent":  float64(r.MsgsSent),
				"bytes_sent": float64(r.BytesSent),
				"runs":       float64(r.Runs),
			},
		}
		for c, cell := range r.ByC {
			rec.Metrics[fmt.Sprintf("fp_c%d", c)] = float64(cell.FP)
			rec.Metrics[fmt.Sprintf("fp_healthy_c%d", c)] = float64(cell.FPHealthy)
		}
		out = append(out, rec)
	}
	return out
}

func thresholdRecords(results []ThresholdSweepResult) []Record {
	out := make([]Record, 0, len(results))
	for _, r := range results {
		out = append(out, Record{
			Experiment: "threshold-sweep",
			Config:     r.Config.Name,
			Params:     map[string]any{"alpha": r.Config.Alpha, "beta": r.Config.Beta},
			Metrics: map[string]float64{
				"first_detect_median_s": r.FirstDetect.Median,
				"first_detect_p99_s":    r.FirstDetect.P99,
				"first_detect_p999_s":   r.FirstDetect.P999,
				"full_dissem_median_s":  r.FullDissem.Median,
				"full_dissem_p99_s":     r.FullDissem.P99,
				"full_dissem_p999_s":    r.FullDissem.P999,
				"detected":              float64(r.Detected),
				"undetected":            float64(r.Undetected),
				"runs":                  float64(r.Runs),
			},
		})
	}
	return out
}

func tuningRecords(res TuningSweepResult) []Record {
	out := make([]Record, 0, len(res.Cells))
	for _, cell := range res.Cells {
		out = append(out, Record{
			Experiment: "tuning-sweep",
			Config:     "Lifeguard",
			Params:     map[string]any{"alpha": cell.Alpha, "beta": cell.Beta},
			Metrics: map[string]float64{
				"med_first_pct_swim":  cell.MedFirst,
				"med_full_pct_swim":   cell.MedFull,
				"p99_first_pct_swim":  cell.P99First,
				"p99_full_pct_swim":   cell.P99Full,
				"p999_first_pct_swim": cell.P999First,
				"p999_full_pct_swim":  cell.P999Full,
				"fp_pct_swim":         cell.FP,
				"fp_healthy_pct_swim": cell.FPHealthy,
			},
		})
	}
	return out
}

func stressRecords(results []StressSweepResult) []Record {
	var out []Record
	for _, r := range results {
		// ByCount is a map; sort the keys so records are stable across
		// identical runs (the whole point of the records).
		counts := make([]int, 0, len(r.ByCount))
		for count := range r.ByCount {
			counts = append(counts, count)
		}
		sort.Ints(counts)
		for _, count := range counts {
			sr := r.ByCount[count]
			out = append(out, Record{
				Experiment: "stress",
				Config:     r.Config.Name,
				Params:     map[string]any{"stressed": count},
				Metrics: map[string]float64{
					"fp":         float64(sr.FP),
					"fp_healthy": float64(sr.FPHealthy),
				},
			})
		}
	}
	return out
}

func chaosRecords(res ChaosResult) []Record {
	out := make([]Record, 0, len(res.Cells))
	for _, cell := range res.Cells {
		out = append(out, Record{
			Experiment: "chaos",
			Config:     cell.Config,
			Params: map[string]any{
				"scenario":    cell.Scenario,
				"members":     res.Params.N,
				"victims":     cell.Victims,
				"crashes":     cell.Crashes,
				"fault_for_s": res.Params.FaultFor.Seconds(),
				"crash_at_s":  res.Params.CrashAt.Seconds(),
			},
			Metrics: map[string]float64{
				"fp":                    float64(cell.FP),
				"fp_healthy":            float64(cell.FPHealthy),
				"victim_deaths":         float64(cell.VictimDeaths),
				"crashes_detected":      float64(cell.CrashesDetected),
				"crash_detect_median_s": cell.CrashDetect.Median,
				"crash_detect_max_s":    cell.CrashDetect.Max,
				"suspicions":            float64(cell.Suspicions),
				"refuted":               float64(cell.Refuted),
				"refute_median_s":       cell.RefuteLatency.Median,
				"msgs_sent":             float64(cell.MsgsSent),
				"bytes_sent":            float64(cell.BytesSent),
				"duplicated":            float64(cell.Duplicated),
				"reordered":             float64(cell.Reordered),
				"fault_drops":           float64(cell.FaultDrops),
			},
		})
	}
	return out
}

func wanRecord(res WANResult, adaptive bool) Record {
	rec := Record{
		Experiment: "wan",
		Config:     "Lifeguard",
		Params: map[string]any{
			"members":       res.N,
			"zones":         len(res.Params.Zones),
			"fail_per_zone": res.Params.FailPerZone,
			"converge_s":    res.Params.Converge.Seconds(),
			"adaptive":      adaptive,
		},
		Metrics: map[string]float64{
			"coord_rel_err_median":       res.CoordErr.Median,
			"coord_rel_err_p99":          res.CoordErr.P99,
			"coord_abs_err_mean_s":       res.MeanAbsErr,
			"pairs_scored":               float64(res.PairsScored),
			"fp":                         float64(res.FP),
			"fp_healthy":                 float64(res.FPHealthy),
			"detect_cross_zone_median_s": res.CrossZoneDetect.Median,
			"detect_cross_zone_p99_s":    res.CrossZoneDetect.P99,
			"msgs_sent":                  float64(res.MsgsSent),
			"bytes_sent":                 float64(res.BytesSent),
			"adaptive_timeouts":          float64(res.AdaptiveTimeouts),
			"adaptive_timeout_fallbacks": float64(res.AdaptiveFallbacks),
			"relay_near_picks":           float64(res.RelayNear),
			"relay_random_picks":         float64(res.RelayRandom),
			"gossip_near_picks":          float64(res.GossipNear),
			"gossip_escape_picks":        float64(res.GossipEscape),
			"obs_rtt_samples":            float64(res.ObsRTTSamples),
			"obs_rtt_p50_err_median":     res.ObsRTTP50ErrMedian,
			"obs_rtt_p90_err_median":     res.ObsRTTP90ErrMedian,
		},
	}
	for _, pe := range res.ObsRTTPairs {
		pair := pe.ZoneA + "__" + pe.ZoneB
		rec.Metrics["obs_rtt_p50_err_"+pair] = pe.P50RelErr
		rec.Metrics["obs_rtt_p90_err_"+pair] = pe.P90RelErr
	}
	for _, z := range res.PerZone {
		rec.Metrics["detect_median_s_"+z.Zone] = z.FirstDetect.Median
		rec.Metrics["detect_cross_zone_median_s_"+z.Zone] = z.CrossZoneDetect.Median
		rec.Metrics["detected_"+z.Zone] = float64(z.Detected)
		rec.Metrics["failed_"+z.Zone] = float64(z.Failed)
		rec.Metrics["fp_"+z.Zone] = float64(z.FP)
	}
	return rec
}

func churnRecord(r ChurnResult) Record {
	return Record{
		Experiment: "churn",
		Config:     "Lifeguard",
		Params: map[string]any{
			"members":    r.N,
			"duration_s": r.Params.Duration.Seconds(),
			"interval_s": r.Params.Interval.Seconds(),
		},
		Metrics: map[string]float64{
			"fails":                 float64(r.Fails),
			"leaves":                float64(r.Leaves),
			"joins":                 float64(r.Joins),
			"detected_fails":        float64(r.DetectedFails),
			"first_detect_median_s": r.FirstDetect.Median,
			"first_detect_max_s":    r.FirstDetect.Max,
			"fp":                    float64(r.FP),
			"joins_seen":            float64(r.JoinsSeen),
			"joins_sampled":         float64(r.JoinsSampled),
		},
	}
}

func partitionRecord(n int, r PartitionResult) Record {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return Record{
		Experiment: "partition",
		Config:     "Lifeguard",
		Params: map[string]any{
			"members":       n,
			"size_a":        r.Params.SizeA,
			"duration_s":    r.Params.Duration.Seconds(),
			"heal_budget_s": r.Params.HealBudget.Seconds(),
		},
		Metrics: map[string]float64{
			"side_a_converged":    b2f(r.SideAConverged),
			"side_b_converged":    b2f(r.SideBConverged),
			"cross_declared_dead": float64(r.CrossDeclaredDead),
			"remerged":            b2f(r.Remerged),
			"remerge_s":           r.RemergeTime.Seconds(),
		},
	}
}

func restartRecords(res RestartResult) []Record {
	out := make([]Record, 0, len(res.Cells))
	for _, cell := range res.Cells {
		out = append(out, Record{
			Experiment: "rolling-restart",
			Config:     cell.Config,
			Params: map[string]any{
				"members":      res.Params.N,
				"waves":        res.Params.Waves,
				"per_wave":     res.Params.PerWave,
				"down_for_s":   restartDownFor.Seconds(),
				"stagger_s":    restartStagger.Seconds(),
				"wave_every_s": restartWaveEvery.Seconds(),
				"settle_s":     res.Params.Settle.Seconds(),
			},
			Metrics: map[string]float64{
				"restarts":        float64(cell.Restarts),
				"rejoined":        float64(cell.Rejoined),
				"fp":              float64(cell.FP),
				"fp_healthy":      float64(cell.FPHealthy),
				"rejoin_median_s": cell.RejoinConverge.Median,
				"rejoin_max_s":    cell.RejoinConverge.Max,
				"msgs_sent":       float64(cell.MsgsSent),
				"bytes_sent":      float64(cell.BytesSent),
			},
		})
	}
	return out
}
