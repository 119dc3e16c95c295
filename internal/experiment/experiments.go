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

// ThresholdParams parameterizes one Threshold experiment (§V-D1): a
// single set of C fully-correlated anomalies of duration D.
type ThresholdParams struct {
	// C is the number of concurrent anomalous members.
	C int

	// D is the anomaly duration.
	D time.Duration
}

// ThresholdResult holds the latency samples from one Threshold run.
type ThresholdResult struct {
	Params ThresholdParams

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

// RunThreshold executes one Threshold experiment.
func RunThreshold(cc ClusterConfig, p ThresholdParams) (ThresholdResult, error) {
	if cc.N == 0 {
		cc.N = DefaultN
	}
	c, err := NewCluster(cc)
	if err != nil {
		return ThresholdResult{}, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return ThresholdResult{}, err
	}

	anomalous := c.PickAnomalySet(p.C, cc.Seed+1)
	anomalyStart := c.Sched.Now()
	c.SetAnomalous(anomalous, true)
	c.Sched.RunFor(p.D)
	c.SetAnomalous(anomalous, false)

	// Run out the horizon (the paper runs until recovery or 120 s from
	// experiment start; detections happen well inside the horizon).
	remaining := Horizon - c.Elapsed()
	if remaining > 0 {
		c.Sched.RunFor(remaining)
	}

	gone := departAll(anomalous, anomalyStart, true)
	score := scoreDeaths(c.Events.Events(), anomalyStart, gone)
	healthy := func(observer string) bool { _, bad := gone[observer]; return !bad }
	res := ThresholdResult{Params: p}
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

// IntervalParams parameterizes one Interval experiment (§V-D2): cycles
// of anomaly duration D separated by normal intervals I, repeated until
// the horizon.
type IntervalParams struct {
	// C is the number of concurrent anomalous members.
	C int

	// D is the duration of each anomalous period.
	D time.Duration

	// I is the normal-operation interval between anomalies.
	I time.Duration
}

// IntervalResult holds the false-positive and load metrics from one
// Interval run (§V-F1, §V-F3).
type IntervalResult struct {
	Params IntervalParams

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

// RunInterval executes one Interval experiment.
func RunInterval(cc ClusterConfig, p IntervalParams) (IntervalResult, error) {
	if cc.N == 0 {
		cc.N = DefaultN
	}
	c, err := NewCluster(cc)
	if err != nil {
		return IntervalResult{}, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return IntervalResult{}, err
	}

	anomalous := c.PickAnomalySet(p.C, cc.Seed+1)
	anomalyStart := c.Sched.Now()

	res := IntervalResult{Params: p}
	// Cycle anomalies until at least Horizon has passed since the start
	// of the test; the test ends at the end of an anomalous period
	// (§V-D2).
	for {
		c.SetAnomalous(anomalous, true)
		c.Sched.RunFor(p.D)
		c.SetAnomalous(anomalous, false)
		res.Cycles++
		if c.Elapsed() >= Horizon {
			break
		}
		c.Sched.RunFor(p.I)
	}

	score := scoreDeaths(c.Events.Events(), anomalyStart, departAll(anomalous, anomalyStart, false))
	res.FP, res.FPHealthy, res.TruePositives = score.FP, score.FPHealthy, score.TP
	total := c.Net.TotalStats()
	res.MsgsSent = total.MsgsSent
	res.BytesSent = total.BytesSent
	return res, nil
}

// StressParams parameterizes the Figure-1 CPU-exhaustion scenario: a
// 100-member cluster where Stressed members run an extreme CPU workload
// for 5 minutes, modelled as a heavy block/wake duty cycle (the stress
// tool's 128 spinning processes starve the agent to ~1% of a core).
type StressParams struct {
	// Stressed is the number of members running the stress workload.
	Stressed int

	// Duration is the workload duration. Defaults to StressHorizon.
	Duration time.Duration
}

// The stress duty cycle: blocked long enough for a suspicion raised at
// one wake to outlive the next, then runnable for ≈1% of the cycle (the
// paper's stress tool starves the agent to ~1% of one core).
const (
	stressBlockFor = 12 * time.Second
	stressWakeFor  = 120 * time.Millisecond
)

// StressResult mirrors Figure 1's two metrics for one configuration.
type StressResult struct {
	Params StressParams

	// FP is the total number of false-positive failure events.
	FP int

	// FPHealthy is the number of false positives at healthy members.
	FPHealthy int
}

// RunStress executes one Figure-1 scenario run.
func RunStress(cc ClusterConfig, p StressParams) (StressResult, error) {
	if cc.N == 0 {
		cc.N = StressN
	}
	if p.Duration <= 0 {
		p.Duration = StressHorizon
	}
	c, err := NewCluster(cc)
	if err != nil {
		return StressResult{}, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return StressResult{}, err
	}

	stressed := c.PickAnomalySet(p.Stressed, cc.Seed+1)
	workloadStart := c.Sched.Now()
	deadline := workloadStart.Add(p.Duration)
	for c.Sched.Now().Before(deadline) {
		c.SetAnomalous(stressed, true)
		c.Sched.RunFor(stressBlockFor)
		c.SetAnomalous(stressed, false)
		c.Sched.RunFor(stressWakeFor)
	}
	// Let in-flight suspicions resolve before counting, as the paper's
	// log analysis does (events are logged during and after the load).
	c.Sched.RunFor(30 * time.Second)

	score := scoreDeaths(c.Events.Events(), workloadStart, departAll(stressed, workloadStart, false))
	return StressResult{Params: p, FP: score.FP, FPHealthy: score.FPHealthy}, nil
}
