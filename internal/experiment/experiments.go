package experiment

import "time"

// Paper experiment constants (§V-D).
const (
	// DefaultN is the cluster size for Threshold/Interval experiments.
	DefaultN = 128

	// StressN is the cluster size for the Figure-1 scenario.
	StressN = 100

	// Quiesce is the settle time before anomalies start.
	Quiesce = 15 * time.Second

	// Horizon is the minimum experiment duration after start.
	Horizon = 120 * time.Second

	// StressHorizon is the Figure-1 workload duration.
	StressHorizon = 5 * time.Minute
)

// thresholdParams parameterizes one Threshold experiment (§V-D1): a
// single set of C fully-correlated anomalies of duration D.
type thresholdParams struct {
	// C is the number of concurrent anomalous members.
	C int

	// D is the anomaly duration.
	D time.Duration
}

// thresholdResult holds the latency samples from one Threshold run.
type thresholdResult struct {
	Params thresholdParams

	// FirstDetect has, per anomalous member that was detected, the time
	// from anomaly start to the first dead event about it at any other
	// member.
	FirstDetect []time.Duration

	// FullDissem has, per anomalous member whose failure reached every
	// healthy member, the time from anomaly start until the last
	// healthy member raised the dead event.
	FullDissem []time.Duration

	// Detected and Undetected count anomalous members with/without a
	// first-detection sample (short anomalies are refuted before the
	// suspicion timeout and never become failures — by design).
	Detected, Undetected int
}

// runThreshold executes one Threshold experiment.
func runThreshold(cc ClusterConfig, p thresholdParams) (thresholdResult, error) {
	c, err := NewCluster(cc)
	if err != nil {
		return thresholdResult{}, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return thresholdResult{}, err
	}

	anomalous := cast(cc.N, p.C, cc.Seed+1)
	r := c.play(script{}.anomaly(anomalous, 0, p.D))
	if err := r.finish(); err != nil {
		return thresholdResult{}, err
	}
	// Run out the horizon (the paper runs until recovery or 120 s from
	// experiment start; detections happen well inside the horizon).
	if remaining := Horizon - c.elapsed(); remaining > 0 {
		c.Sched.RunFor(remaining)
	}

	score := scoreDeaths(c.Events.Events(), r.start, r.gone, r.faulted)
	healthy := func(observer string) bool { _, bad := r.gone[observer]; return !bad }
	res := thresholdResult{Params: p}
	for _, name := range anomalous {
		first, _, n := score.detection(name, nil)
		if n == 0 {
			continue
		}
		res.FirstDetect = append(res.FirstDetect, first)
		// Fully disseminated once every healthy member has declared it
		// dead: the sample is the slowest of them.
		if _, last, seen := score.detection(name, healthy); seen == len(c.Nodes)-len(anomalous) {
			res.FullDissem = append(res.FullDissem, last)
		}
	}
	res.Detected = len(res.FirstDetect)
	res.Undetected = len(anomalous) - res.Detected
	return res, nil
}

// allNames returns every member name.
func (c *Cluster) allNames() []string {
	names := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		names[i] = n.Name()
	}
	return names
}

// intervalParams parameterizes one Interval experiment (§V-D2): cycles
// of anomaly duration D separated by normal intervals I, repeated until
// the horizon.
type intervalParams struct {
	// C is the number of concurrent anomalous members.
	C int

	// D is the duration of each anomalous period.
	D time.Duration

	// I is the normal-operation interval between anomalies.
	I time.Duration
}

// intervalResult holds the false-positive and load metrics from one
// Interval run (§V-F1, §V-F3).
type intervalResult struct {
	Params intervalParams

	// FP counts false-positive failure events at any member: dead
	// events whose subject is not in the anomaly set.
	FP int

	// FPHealthy (the paper's FP-) counts false positives whose observer
	// is also outside the anomaly set.
	FPHealthy int

	// TruePositives counts dead events about anomalous members, for
	// context.
	TruePositives int

	// MsgsSent and BytesSent total the transport load over the whole
	// run.
	MsgsSent, BytesSent int64

	// Cycles is the number of anomaly periods executed.
	Cycles int
}

// runInterval executes one Interval experiment.
func runInterval(cc ClusterConfig, p intervalParams) (intervalResult, error) {
	c, err := NewCluster(cc)
	if err != nil {
		return intervalResult{}, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return intervalResult{}, err
	}

	anomalous := cast(cc.N, p.C, cc.Seed+1)
	res := intervalResult{Params: p}
	// Cycle anomalies until at least Horizon has passed since the start
	// of the test; the test ends at the end of an anomalous period
	// (§V-D2): a period starts while the one before it, which ended I
	// earlier, ended before the horizon.
	var s script
	for t := time.Duration(0); t-p.I < Horizon-c.elapsed(); t += p.D + p.I {
		s = s.anomaly(anomalous, t, p.D)
		res.Cycles++
	}
	r := c.play(s)
	if err := r.finish(); err != nil {
		return intervalResult{}, err
	}

	score := scoreDeaths(c.Events.Events(), r.start, r.gone, r.faulted)
	res.FP, res.FPHealthy, res.TruePositives = score.FP, score.FPHealthy, score.TP
	total := c.Net.TotalStats()
	res.MsgsSent = total.MsgsSent
	res.BytesSent = total.BytesSent
	return res, nil
}

// stressParams parameterizes the Figure-1 CPU-exhaustion scenario: a
// 100-member cluster where Stressed members run an extreme CPU workload
// for 5 minutes, modelled as a heavy block/wake duty cycle (the stress
// tool's 128 spinning processes starve the agent to ~1% of a core).
type stressParams struct {
	// Stressed is the number of members running the stress workload.
	Stressed int

	// Duration is the workload duration (StressHorizon in the paper).
	Duration time.Duration
}

// The stress duty cycle: blocked long enough for a suspicion raised at
// one wake to outlive the next, then runnable for ≈1% of the cycle (the
// paper's stress tool starves the agent to ~1% of one core).
const (
	stressBlockFor = 12 * time.Second
	stressWakeFor  = 120 * time.Millisecond
)

// runStress executes one Figure-1 scenario run and returns its record
// (docs/LIFEBENCH.md lists its keys).
func runStress(cc ClusterConfig, p stressParams) (Record, error) {
	c, err := NewCluster(cc)
	if err != nil {
		return Record{}, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return Record{}, err
	}

	stressed := cast(cc.N, p.Stressed, cc.Seed+1)
	s, t := script{}, time.Duration(0)
	for ; t < p.Duration; t += stressBlockFor + stressWakeFor {
		s = s.anomaly(stressed, t, stressBlockFor)
	}
	// Let in-flight suspicions resolve before counting, as the paper's
	// log analysis does (events are logged during and after the load).
	r := c.play(s)
	if err := r.runTo(t + 30*time.Second); err != nil {
		return Record{}, err
	}

	score := scoreDeaths(c.Events.Events(), r.start, r.gone, r.faulted)
	return Record{
		Experiment: "stress",
		Config:     cc.Protocol.Name,
		Params:     map[string]any{"stressed": p.Stressed},
		Metrics: map[string]float64{
			"fp":         float64(score.FP),
			"fp_healthy": float64(score.FPHealthy),
		},
	}, nil
}
