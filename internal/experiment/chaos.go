package experiment

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"lifeguard/internal/metrics"
	"lifeguard/internal/sim"
	"lifeguard/internal/stats"
)

// The chaos experiment is the repo's reproduction of the paper's
// headline claim: Lifeguard's false-positive reduction comes from
// tolerating *degraded* members — slow processing, stalls, impaired
// links — not just from detecting dead ones. Each run is a matrix of
// fault scenarios × protocol configurations (Table I ablation), all at
// the same seed so cells are directly comparable. Every scenario mixes
// non-fatal faults on a victim set (members that stay alive and must
// NOT be declared dead — every dead event about them is a false
// positive) with a set of real hard crashes (members that MUST be
// detected — scored for latency).

// ChaosParams parameterizes one chaos scenario matrix. Zero-valued
// fields take the documented defaults.
type ChaosParams struct {
	// N is the cluster size. Defaults to 48.
	N int

	// Victims is the number of members afflicted by each scenario's
	// non-fatal fault. Defaults to 6.
	Victims int

	// Crashes is the number of members hard-crashed (inbound dropped,
	// immune to resume) during the fault window. Defaults to 3. The
	// crash set is disjoint from the victim set and identical in every
	// cell.
	Crashes int

	// FaultFor is the fault window: scenario faults run over
	// [0, FaultFor) from the post-quiesce start. Defaults to 60 s.
	FaultFor time.Duration

	// CrashAt is the crash offset inside the fault window, so real
	// failures must be detected while the chaos is ongoing. Defaults to
	// FaultFor / 3; it must be below FaultFor.
	CrashAt time.Duration

	// Settle is how long the run continues after the fault window, for
	// in-flight suspicions to resolve. Defaults to 45 s.
	Settle time.Duration
}

// withDefaults resolves zero-valued parameters. It is idempotent.
func (p ChaosParams) withDefaults() ChaosParams {
	if p.N == 0 {
		p.N = 48
	}
	if p.Victims <= 0 {
		p.Victims = 6
	}
	if p.Crashes <= 0 {
		p.Crashes = 3
	}
	if p.FaultFor <= 0 {
		p.FaultFor = 60 * time.Second
	}
	if p.CrashAt <= 0 {
		p.CrashAt = p.FaultFor / 3
	}
	if p.Settle <= 0 {
		p.Settle = 45 * time.Second
	}
	return p
}

// The scenarios' fault levels.
var (
	// chaosDegrade is the degraded-member scenario's per-message (and
	// per-timer) processing delay: victims miss most direct-probe
	// deadlines and build queues under gossip bursts while still
	// (slowly) responding — the paper's slow member, squarely in the
	// regime where SWIM's fixed suspicion timeout false-positives and
	// Lifeguard's does not.
	chaosDegrade = sim.DelayDist{Base: 150 * time.Millisecond, Jitter: 300 * time.Millisecond}

	// chaosLink is the lossy-link scenario's impairment, applied in both
	// directions between each victim and every other member.
	chaosLink = sim.LinkFault{Loss: 0.25, Duplicate: 0.15, Reorder: 0.25}
)

const (
	// chaosPauseFor and chaosWakeFor are the pause-flap scenario's duty
	// cycle: paused long enough to outlive the SWIM suspicion timeout.
	chaosPauseFor = 12 * time.Second
	chaosWakeFor  = 6 * time.Second

	// chaosPartitionFraction is the fraction of peers each
	// asym-partition victim cannot send to (it still receives from
	// everyone — the asymmetric half-open failure).
	chaosPartitionFraction = 0.6
)

// chaosScenario is one row of the scenario matrix: a named builder of
// the fault script for the victim set over [0, FaultFor).
type chaosScenario struct {
	name string
	desc string
	// build returns the scenario's entries. victims is the scenario's
	// victim set, peers every member name; rng is a dedicated
	// deterministic stream (same across configs, so every column of a
	// row sees identical faults).
	build func(victims, peers []string, p ChaosParams, rng *rand.Rand) script
}

// degrade slows victims' processing for the whole window.
func buildDegraded(victims, _ []string, p ChaosParams, _ *rand.Rand) script {
	var s script
	for _, v := range victims {
		s = s.span(entry{op: opDegrade, node: v, delay: chaosDegrade}, p.FaultFor)
	}
	return s
}

// pause-flap cycles victims through total stalls with buffered inbound.
func buildPauseFlap(victims, _ []string, p ChaosParams, _ *rand.Rand) script {
	var s script
	for _, v := range victims {
		for t := time.Duration(0); t < p.FaultFor; t += chaosPauseFor + chaosWakeFor {
			s = s.span(entry{at: t, op: opPause, node: v, mode: sim.PauseBuffer}, min(t+chaosPauseFor, p.FaultFor))
		}
	}
	return s
}

// asym-partition makes each victim half-open: it cannot send to a
// random chaosPartitionFraction of peers but still receives from
// everyone.
func buildAsymPartition(victims, peers []string, p ChaosParams, rng *rand.Rand) script {
	var s script
	for _, v := range victims {
		others := without(peers, v)
		k := int(chaosPartitionFraction * float64(len(others)))
		cut := make([]string, k)
		for j, i := range rng.Perm(len(others))[:k] {
			cut[j] = others[i]
		}
		s = s.span(entry{op: opCut, node: v, peers: cut, oneWay: true}, p.FaultFor)
	}
	return s
}

// lossy-link impairs both directions between each victim and everyone.
func buildLossyLink(victims, peers []string, p ChaosParams, _ *rand.Rand) script {
	var s script
	for _, v := range victims {
		s = s.span(entry{op: opImpair, node: v, peers: without(peers, v), link: chaosLink}, p.FaultFor)
	}
	return s
}

// without returns a copy of names minus name.
func without(names []string, name string) []string {
	return slices.DeleteFunc(slices.Clone(names), func(n string) bool { return n == name })
}

// combined deals the victims round-robin across the three fault
// classes — degraded, flapping, lossy — so every class is present
// whenever there are at least three victims (fewer victims cover the
// classes in that priority order).
func buildCombined(victims, peers []string, p ChaosParams, rng *rand.Rand) script {
	var groups [3][]string
	for i, v := range victims {
		groups[i%3] = append(groups[i%3], v)
	}
	s := buildDegraded(groups[0], peers, p, rng)
	s = append(s, buildPauseFlap(groups[1], peers, p, rng)...)
	return append(s, buildLossyLink(groups[2], peers, p, rng)...)
}

// chaosScenarios is the scenario matrix, in report order.
var chaosScenarios = []chaosScenario{
	{name: "degraded", desc: "victims' message handling and timers slowed past the service-rate cliff", build: buildDegraded},
	{name: "pause-flap", desc: "victims cycle total stalls (buffered inbound) and wakes", build: buildPauseFlap},
	{name: "asym-partition", desc: "victims receive from everyone but cannot send to a fraction of peers", build: buildAsymPartition},
	{name: "lossy-link", desc: "victims' links suffer loss, duplication and reordering", build: buildLossyLink},
	{name: "combined", desc: "victims dealt across degraded, flapping and lossy at once", build: buildCombined},
}

// ChaosScenarioNames lists the chaos scenarios in matrix order.
func ChaosScenarioNames() []string {
	names := make([]string, len(chaosScenarios))
	for i, sc := range chaosScenarios {
		names[i] = sc.name
	}
	return names
}

// chaosCast deterministically selects the victim and crash sets for a
// run: disjoint, excluding member 0 (the join seed), identical across
// every cell of the matrix.
func chaosCast(p ChaosParams, seed int64) (victims, crashed []string) {
	names := cast(p.N, p.Victims+p.Crashes, seed*31+17)
	return names[:p.Victims], names[p.Victims:]
}

// findChaosScenario resolves a scenario by name.
func findChaosScenario(name string) (chaosScenario, int, error) {
	for i, sc := range chaosScenarios {
		if sc.name == name {
			return sc, i, nil
		}
	}
	return chaosScenario{}, 0, fmt.Errorf("experiment: unknown chaos scenario %q (want one of %s)",
		name, strings.Join(ChaosScenarioNames(), "|"))
}

// RunChaosCell executes one (scenario, configuration) cell: quiesce,
// play the scenario's fault script plus the crash set, run out the
// fault window and settle phase, and score. It returns the cell's
// record (docs/LIFEBENCH.md lists its keys) and the full membership
// event log (the raw material for invariant harnesses). cc.N is taken
// from the params and must be left zero.
func RunChaosCell(cc ClusterConfig, scenario string, p ChaosParams) (Record, []metrics.Event, error) {
	p = p.withDefaults()
	if p.Victims+p.Crashes > p.N-1 {
		return Record{}, nil, fmt.Errorf(
			"experiment: chaos fault sets need %d members (%d victims + %d crashes) but only %d are eligible (N=%d minus the join seed)",
			p.Victims+p.Crashes, p.Victims, p.Crashes, p.N-1, p.N)
	}
	if p.CrashAt >= p.FaultFor {
		return Record{}, nil, fmt.Errorf(
			"experiment: chaos CrashAt %v must fall inside the %v fault window", p.CrashAt, p.FaultFor)
	}
	sc, scIndex, err := findChaosScenario(scenario)
	if err != nil {
		return Record{}, nil, err
	}
	cc.N = p.N
	c, err := NewCluster(cc)
	if err != nil {
		return Record{}, nil, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return Record{}, nil, err
	}

	victims, crashed := chaosCast(p, cc.Seed)
	// The script RNG depends on seed and scenario, never on the
	// configuration, so every column of a matrix row sees identical
	// faults.
	rng := rand.New(rand.NewSource(cc.Seed*104729 + int64(scIndex)))
	s := sc.build(victims, c.allNames(), p, rng)
	for _, name := range crashed {
		s = append(s, entry{at: p.CrashAt, op: opCrash, node: name})
	}
	r := c.play(s)
	if err := r.runTo(p.FaultFor + p.Settle); err != nil {
		return Record{}, nil, err
	}

	events := c.Events.Events()
	// Scored from the fault start, with the crashes departing when they
	// land: a dead event about a crash-set member before its crash is a
	// false positive like any other.
	score := scoreDeaths(events, r.start, r.gone, r.faulted)
	victimDeaths := 0
	for _, v := range victims {
		victimDeaths += score.FPBySubject[v]
	}
	var detect []float64
	for _, name := range crashed {
		if first, _, n := score.detection(name, nil); n > 0 {
			detect = append(detect, first.Seconds())
		}
	}
	crashDetect := stats.Summarize(detect)
	suspicions, refuted, refLat := refutationLatencies(events, r.gone, r.start)
	total := c.Net.TotalStats()
	return Record{
		Experiment: "chaos",
		Config:     cc.Protocol.Name,
		Params: map[string]any{
			"scenario":    sc.name,
			"members":     p.N,
			"victims":     len(victims),
			"crashes":     len(crashed),
			"fault_for_s": p.FaultFor.Seconds(),
			"crash_at_s":  p.CrashAt.Seconds(),
		},
		Metrics: map[string]float64{
			"fp":                    float64(score.FP),
			"fp_healthy":            float64(score.FPHealthy),
			"victim_deaths":         float64(victimDeaths),
			"crashes_detected":      float64(len(detect)),
			"crash_detect_median_s": crashDetect.Median,
			"crash_detect_max_s":    crashDetect.Max,
			"suspicions":            float64(suspicions),
			"refuted":               float64(refuted),
			"refute_median_s":       stats.Summarize(refLat).Median,
			"msgs_sent":             float64(total.MsgsSent),
			"bytes_sent":            float64(total.BytesSent),
			"duplicated":            float64(total.Duplicated),
			"reordered":             float64(total.Reordered),
			"fault_drops":           float64(total.DropsFault),
		},
	}, events, nil
}

// chaosCells enumerates the scenario × configuration matrix, scenario-
// major over ChaosScenarioNames × Configurations, every cell at cc's
// seed with cc.Protocol overridden.
func chaosCells(cc ClusterConfig, p ChaosParams) []Cell {
	var cells []Cell
	for _, name := range ChaosScenarioNames() {
		for _, proto := range Configurations {
			name, cellCC := name, cc
			cellCC.Protocol = proto
			cells = append(cells, Cell{
				Label: fmt.Sprintf("chaos %s/%s", name, proto.Name),
				Run: func() (any, error) {
					rec, _, err := RunChaosCell(cellCC, name, p)
					return rec, err
				},
			})
		}
	}
	return cells
}

// refutationLatencies pairs suspect events with the alive events that
// refute them, per observer–subject pair, for subjects with no
// departure. A suspicion resolved by a dead event (or never resolved)
// counts as un-refuted.
func refutationLatencies(events []metrics.Event, gone map[string]departure, start time.Time) (suspicions, refuted int, latencies []float64) {
	open := make(map[string]time.Time)
	for _, ev := range events {
		if ev.Time.Before(start) || ev.Observer == ev.Subject {
			continue
		}
		if _, bad := gone[ev.Subject]; bad {
			continue
		}
		key := ev.Observer + "|" + ev.Subject
		switch ev.Type {
		case metrics.EventSuspect:
			if _, isOpen := open[key]; !isOpen {
				open[key] = ev.Time
				suspicions++
			}
		case metrics.EventAlive:
			if t0, isOpen := open[key]; isOpen {
				delete(open, key)
				refuted++
				latencies = append(latencies, ev.Time.Sub(t0).Seconds())
			}
		case metrics.EventDead:
			delete(open, key)
		}
	}
	return suspicions, refuted, latencies
}
