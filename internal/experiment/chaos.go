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

// chaosParams times one chaos scenario matrix; the cluster size is
// cc.N, and the fault sets are the chaosVictims and chaosCrashes
// constants.
type chaosParams struct {
	// FaultFor is the fault window: scenario faults run over
	// [0, FaultFor) from the post-quiesce start.
	FaultFor time.Duration

	// CrashAt is the crash offset inside the fault window, so real
	// failures must be detected while the chaos is ongoing; it must lie
	// in (0, FaultFor). The scenario crashes at FaultFor/3. It stays a
	// parameter because TestChaosLifeguardBeatsSWIM, a one-seed claim
	// test, crashes at +5 s, and a different offset changes its data.
	CrashAt time.Duration

	// Settle is how long the run continues after the fault window, for
	// in-flight suspicions to resolve.
	Settle time.Duration
}

// The chaos fault sets, disjoint and identical in every cell.
const (
	// chaosVictims is the number of members afflicted by each
	// scenario's non-fatal fault.
	chaosVictims = 6

	// chaosCrashes is the number of members hard-crashed (inbound
	// dropped, immune to resume) during the fault window.
	chaosCrashes = 3
)

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
	build func(victims, peers []string, p chaosParams, rng *rand.Rand) script
}

// degrade slows victims' processing for the whole window.
func buildDegraded(victims, _ []string, p chaosParams, _ *rand.Rand) script {
	var s script
	for _, v := range victims {
		s = s.span(entry{op: opDegrade, node: v, delay: chaosDegrade}, p.FaultFor)
	}
	return s
}

// pause-flap cycles victims through total stalls with buffered inbound.
func buildPauseFlap(victims, _ []string, p chaosParams, _ *rand.Rand) script {
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
func buildAsymPartition(victims, peers []string, p chaosParams, rng *rand.Rand) script {
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
func buildLossyLink(victims, peers []string, p chaosParams, _ *rand.Rand) script {
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
// classes — degraded, flapping, lossy — so each class holds a third of
// the chaosVictims.
func buildCombined(victims, peers []string, p chaosParams, rng *rand.Rand) script {
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
// run of n members: disjoint, excluding member 0 (the join seed),
// identical across every cell of the matrix.
func chaosCast(n int, seed int64) (victims, crashed []string) {
	names := cast(n, chaosVictims+chaosCrashes, seed*31+17)
	return names[:chaosVictims], names[chaosVictims:]
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

// runChaosCell executes one (scenario, configuration) cell: quiesce,
// play the scenario's fault script plus the crash set, run out the
// fault window and settle phase, and score. It returns the cell's
// record (docs/LIFEBENCH.md lists its keys) and the full membership
// event log (the raw material for invariant harnesses).
func runChaosCell(cc ClusterConfig, scenario string, p chaosParams) (Record, []metrics.Event, error) {
	if chaosVictims+chaosCrashes > cc.N-1 {
		return Record{}, nil, fmt.Errorf(
			"experiment: chaos fault sets need %d members (%d victims + %d crashes) but only %d are eligible (N=%d minus the join seed)",
			chaosVictims+chaosCrashes, chaosVictims, chaosCrashes, cc.N-1, cc.N)
	}
	if p.CrashAt <= 0 || p.CrashAt >= p.FaultFor {
		return Record{}, nil, fmt.Errorf(
			"experiment: chaos CrashAt %v must fall inside the %v fault window", p.CrashAt, p.FaultFor)
	}
	sc, scIndex, err := findChaosScenario(scenario)
	if err != nil {
		return Record{}, nil, err
	}
	c, err := NewCluster(cc)
	if err != nil {
		return Record{}, nil, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return Record{}, nil, err
	}

	victims, crashed := chaosCast(cc.N, cc.Seed)
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
			"members":     cc.N,
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
func chaosCells(cc ClusterConfig, p chaosParams) []cell {
	var cells []cell
	for _, name := range ChaosScenarioNames() {
		for _, proto := range Configurations {
			name, cellCC := name, cc
			cellCC.Protocol = proto
			cells = append(cells, cell{
				Label: fmt.Sprintf("chaos %s/%s", name, proto.Name),
				Run: func() (any, error) {
					rec, _, err := runChaosCell(cellCC, name, p)
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
