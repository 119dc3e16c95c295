// Package simulation exposes the discrete-event experiment harness the
// paper's evaluation runs on: simulated clusters with virtual time,
// anomaly injection (the paper's block/unblock slow-processing model),
// and the Threshold, Interval and CPU-exhaustion experiments.
//
// It is the public face of internal/experiment, letting library users
// reproduce the paper's results or evaluate their own tunings without
// deploying real clusters:
//
//	res, err := simulation.RunInterval(
//	    simulation.ClusterConfig{N: 128, Seed: 1, Protocol: simulation.ConfigLifeguard},
//	    simulation.IntervalParams{C: 8, D: 16 * time.Second, I: 64 * time.Millisecond},
//	)
package simulation

import (
	"lifeguard/internal/experiment"
	"lifeguard/internal/sim"
)

// ProtocolConfig selects Lifeguard components and suspicion tuning.
type ProtocolConfig = experiment.ProtocolConfig

// The paper's five test configurations (Table I).
var (
	// ConfigSWIM is the baseline with all Lifeguard components off.
	ConfigSWIM = experiment.ConfigSWIM

	// ConfigLHAProbe enables only Local Health Aware Probe.
	ConfigLHAProbe = experiment.ConfigLHAProbe

	// ConfigLHASuspicion enables only Local Health Aware Suspicion.
	ConfigLHASuspicion = experiment.ConfigLHASuspicion

	// ConfigBuddy enables only the Buddy System.
	ConfigBuddy = experiment.ConfigBuddy

	// ConfigLifeguard enables all three components (α=5, β=6).
	ConfigLifeguard = experiment.ConfigLifeguard
)

// Configurations lists Table I in the paper's order.
var Configurations = experiment.Configurations

// ClusterConfig sizes and seeds a simulated cluster.
type ClusterConfig = experiment.ClusterConfig

// Cluster is a simulated group of protocol nodes with anomaly gates.
// Use it directly for custom experiments; the Run helpers cover the
// paper's.
type Cluster = experiment.Cluster

// NewCluster builds a simulated cluster.
func NewCluster(cc ClusterConfig) (*Cluster, error) { return experiment.NewCluster(cc) }

// Experiment parameter and result types.
type (
	// ThresholdParams is one Threshold experiment (§V-D1).
	ThresholdParams = experiment.ThresholdParams

	// ThresholdResult holds detection/dissemination latency samples.
	ThresholdResult = experiment.ThresholdResult

	// IntervalParams is one Interval experiment (§V-D2).
	IntervalParams = experiment.IntervalParams

	// IntervalResult holds false-positive and message-load counts.
	IntervalResult = experiment.IntervalResult

	// StressParams is the Figure-1 CPU-exhaustion scenario.
	StressParams = experiment.StressParams

	// StressResult holds the Figure-1 metrics.
	StressResult = experiment.StressResult

	// PartitionParams is the partition/heal experiment behind the
	// paper's §II robustness claim.
	PartitionParams = experiment.PartitionParams

	// PartitionResult reports behaviour across a partition.
	PartitionResult = experiment.PartitionResult

	// ChurnParams is the large-cluster churn scenario: a paper-scale
	// cluster under continuous join/leave/fail membership change.
	ChurnParams = experiment.ChurnParams

	// ChurnResult reports detection latency, false positives and join
	// convergence across one churn run.
	ChurnResult = experiment.ChurnResult

	// LinkProfile is one zone-pair's one-way delay model in a WAN
	// topology: Base delay plus a uniform random addition in
	// [0, Jitter), both in virtual time. The zero value means "use the
	// topology default".
	LinkProfile = sim.LinkProfile

	// WANZone names one zone of a WAN experiment and the number of
	// members placed in it.
	WANZone = experiment.WANZone

	// WANParams parameterizes a WAN experiment: zones and their link
	// profiles, the coordinate-convergence phase, and the per-zone
	// failure phase. Zero-value fields take the defaults documented on
	// the experiment package's type.
	WANParams = experiment.WANParams

	// WANZoneResult is the per-zone slice of a WAN run: failure counts,
	// detection latency summaries (overall and cross-zone) and false
	// positives.
	WANZoneResult = experiment.WANZoneResult

	// WANResult holds one WAN run's metrics: coordinate accuracy,
	// per-zone detection, cross-zone detection latency, bandwidth, the
	// adaptive-extension counters, and — when the cluster runs with
	// ClusterConfig.Telemetry — the observed-RTT-versus-ground-truth
	// quantile errors.
	WANResult = experiment.WANResult

	// WANPairRTTErr compares telemetry-observed RTT quantiles against
	// the simulator's ground truth for one unordered zone pair.
	WANPairRTTErr = experiment.WANPairRTTErr

	// WANComparison holds a same-seed adaptive-versus-static pair of
	// WAN runs.
	WANComparison = experiment.WANComparison

	// DelayDist is a delay distribution for fault injection: Base plus
	// a uniform random addition in [0, Jitter). The zero value means
	// "no delay".
	DelayDist = sim.DelayDist

	// PauseMode selects what happens to a paused member's inbound
	// packets: buffered (PauseBuffer) or discarded (PauseDrop).
	PauseMode = sim.PauseMode

	// LinkFault is an injected per-link impairment: extra loss,
	// duplication and reordering on one directed member link.
	LinkFault = sim.LinkFault

	// FaultSchedule is a deterministic, time-ordered script of fault
	// transitions — member degradation, pause/resume, crashes, link
	// impairments and partitions — applied on the simulation's event
	// loop. Build one and install it with Cluster.Net.InstallFaults for
	// custom chaos experiments; RunChaos builds them from named
	// scenarios.
	FaultSchedule = sim.FaultSchedule

	// ChaosParams parameterizes the chaos scenario matrix: cluster and
	// fault-set sizes, the fault window and crash offset, and the
	// scenario/configuration axes. Each scenario's fault level is fixed.
	ChaosParams = experiment.ChaosParams

	// ChaosCellResult is one (scenario, configuration) cell of a chaos
	// matrix: false positives, victim deaths, crash-detection latency,
	// refutation behaviour, transport load and the fault-intervention
	// counters, plus a determinism digest of the full event log.
	ChaosCellResult = experiment.ChaosCellResult

	// ChaosResult holds one chaos matrix run.
	ChaosResult = experiment.ChaosResult

	// RestartParams parameterizes the rolling-restart scenario: members
	// leave and rejoin under the same name in staggered waves (a
	// rolling deploy), scored per Table I configuration.
	RestartParams = experiment.RestartParams

	// RestartCellResult is one configuration's rolling-restart score:
	// false positives, rejoin convergence, transport load and a
	// determinism digest.
	RestartCellResult = experiment.RestartCellResult

	// RestartResult holds one rolling-restart run across the
	// configuration axis.
	RestartResult = experiment.RestartResult

	// Scale selects how much of the paper's combinatorial space a
	// sweep covers: parameter grids, cluster sizes and durations for
	// every scenario.
	Scale = experiment.Scale

	// Record is one machine-readable result row of a scenario run —
	// the unified format cmd/lifebench emits under -json.
	Record = experiment.Record

	// Section is one human-readable report block of a scenario.
	Section = experiment.Section

	// ScenarioResult is a scenario run's merged output: records plus
	// report sections.
	ScenarioResult = experiment.ScenarioResult

	// Cell is one independent unit of scenario work: a fully seeded
	// simulation run the executor may schedule concurrently.
	Cell = experiment.Cell

	// RunOptions parameterizes one scenario run: scale, seed,
	// parallelism and progress callbacks. The scale is what sizes a
	// scenario; for other sizes build a custom Scale or call RunWAN,
	// RunChaos or RunRestart with their own parameters.
	RunOptions = experiment.RunOptions

	// Scenario is one registered experiment, as listed by Scenarios:
	// its name and one-line description.
	Scenario = experiment.Scenario

	// Progress receives completion callbacks (done and total cells).
	Progress = experiment.Progress
)

// The built-in sweep scales.
var (
	// ScaleSmoke is a minimal scale for tests: seconds of wall time.
	ScaleSmoke = experiment.ScaleSmoke

	// ScaleBench is the default benchmark scale: minutes.
	ScaleBench = experiment.ScaleBench

	// ScalePaper is the paper's full grids with 10 repetitions: hours.
	ScalePaper = experiment.ScalePaper
)

// Pause modes for FaultSchedule.PauseNode.
const (
	// PauseBuffer queues a paused member's inbound packets for
	// processing after resume (the paper's §V-D anomaly model).
	PauseBuffer = sim.PauseBuffer

	// PauseDrop discards a paused member's inbound packets; never
	// resumed, it models a hard crash.
	PauseDrop = sim.PauseDrop
)

// RunThreshold executes one Threshold experiment: a single set of C
// fully-correlated anomalies of duration D, measuring detection and
// dissemination latency.
func RunThreshold(cc ClusterConfig, p ThresholdParams) (ThresholdResult, error) {
	return experiment.RunThreshold(cc, p)
}

// RunInterval executes one Interval experiment: cyclic anomalies of
// duration D separated by intervals I, measuring false positives and
// message load.
func RunInterval(cc ClusterConfig, p IntervalParams) (IntervalResult, error) {
	return experiment.RunInterval(cc, p)
}

// RunStress executes one Figure-1 CPU-exhaustion run: a 100-member
// cluster with Stressed members on a heavy block/wake duty cycle.
func RunStress(cc ClusterConfig, p StressParams) (StressResult, error) {
	return experiment.RunStress(cc, p)
}

// RunPartition executes one partition/heal experiment: the cluster is
// split into two halves, both sides settle on their own membership, the
// partition heals, and the groups automatically re-merge (§II).
func RunPartition(cc ClusterConfig, p PartitionParams) (PartitionResult, error) {
	return experiment.RunPartition(cc, p)
}

// RunChurn executes the large-cluster churn scenario: a cluster of
// ClusterConfig.N members (2048 by default) under a steady
// fail/join/leave cycle, measuring crash-detection latency, false
// positives and join convergence at paper scale.
func RunChurn(cc ClusterConfig, p ChurnParams) (ChurnResult, error) {
	return experiment.RunChurn(cc, p)
}

// RunWAN executes one WAN experiment: a multi-zone cluster on a
// topology-aware network, a coordinate-convergence phase scored against
// the simulator's ground-truth RTTs, and a per-zone failure phase
// scored for detection latency (including cross-zone) and false
// positives. Set ClusterConfig.TopologyAware to run it with the
// coordinate-driven protocol extensions enabled.
func RunWAN(cc ClusterConfig, p WANParams) (WANResult, error) {
	return experiment.RunWAN(cc, p)
}

// RunWANComparison executes the WAN experiment twice with the same seed
// and parameters — once static, once topology-aware — so detection
// latency, false positives and bandwidth can be compared directly.
func RunWANComparison(cc ClusterConfig, p WANParams) (WANComparison, error) {
	return experiment.RunWANComparison(cc, p)
}

// DefaultWANZones returns the canonical 4-zone WAN (two US zones,
// Europe, Asia-Pacific) with realistic inter-zone latencies and
// membersPerZone members in each zone.
func DefaultWANZones(membersPerZone int) ([]WANZone, map[[2]string]LinkProfile) {
	return experiment.DefaultWANZones(membersPerZone)
}

// FormatWAN renders one WAN result as a human-readable table.
func FormatWAN(r WANResult) string { return experiment.FormatWAN(r) }

// FormatWANComparison renders an adaptive-versus-static WAN pair with
// the headline deltas.
func FormatWANComparison(c WANComparison) string { return experiment.FormatWANComparison(c) }

// RunChaos executes the chaos scenario matrix: every named fault
// scenario (degraded members, pause/resume flaps, asymmetric
// partitions, lossy links, and all combined) crossed with the Table I
// protocol ablation at one shared seed, each cell mixing non-fatal
// faults on a victim set with real hard crashes and scoring false
// positives, crash-detection latency and refutation latency.
func RunChaos(cc ClusterConfig, p ChaosParams) (ChaosResult, error) {
	return experiment.RunChaos(cc, p)
}

// ChaosScenarioNames lists the chaos scenarios in matrix order.
func ChaosScenarioNames() []string { return experiment.ChaosScenarioNames() }

// FormatChaos renders a chaos matrix as a human-readable ablation
// table.
func FormatChaos(r ChaosResult) string { return experiment.FormatChaos(r) }

// RunRestart executes the rolling-restart scenario: members leave and
// rejoin under the same name in staggered waves, scored per Table I
// configuration on false positives, re-join convergence time and
// bandwidth.
func RunRestart(cc ClusterConfig, p RestartParams) (RestartResult, error) {
	return experiment.RunRestart(cc, p)
}

// FormatRestart renders a rolling-restart run as a human-readable
// per-configuration table.
func FormatRestart(r RestartResult) string { return experiment.FormatRestart(r) }

// FormatChurn renders one churn run as a human-readable summary.
func FormatChurn(r ChurnResult) string { return experiment.FormatChurn(r) }

// FormatPartition renders one partition/heal run as a human-readable
// summary.
func FormatPartition(r PartitionResult) string { return experiment.FormatPartition(r) }

// Scenarios returns the registered scenarios in the canonical run order
// of lifebench's -exp all.
func Scenarios() []Scenario { return experiment.Scenarios() }

// ScenarioNames returns the registered scenario names in run order.
func ScenarioNames() []string { return experiment.ScenarioNames() }

// LookupScenario resolves a registered scenario by name.
func LookupScenario(name string) (Scenario, error) { return experiment.LookupScenario(name) }

// RunScenario plans, executes and reports one registered scenario. Up
// to opt.Parallel independent cells run concurrently; because every
// cell's seed derives from its canonical position, the records are
// byte-identical at any parallelism. Each record is stamped with the
// scale, seed, cell count and the run's wall-clock duration.
func RunScenario(name string, opt RunOptions) (ScenarioResult, error) {
	return experiment.RunScenario(name, opt)
}

// NamedResult is one scenario's output from a RunScenarios batch: the
// scenario name, its merged result, its wall-clock span in seconds and
// its cell count.
type NamedResult = experiment.NamedResult

// RunScenarios plans every named scenario up front and executes all
// their cells through one worker pool of up to opt.Parallel workers,
// so a short scenario's tail never idles workers while a long one
// runs. Results come back in the order names were given, each
// byte-identical to a standalone RunScenario run (wall_s aside).
func RunScenarios(names []string, opt RunOptions) ([]NamedResult, error) {
	return experiment.RunScenarios(names, opt)
}

// NodeName returns the canonical member name for index i in a simulated
// cluster, useful for targeting specific members in custom experiments.
func NodeName(i int) string { return experiment.NodeName(i) }
