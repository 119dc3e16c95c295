package experiment

import (
	"fmt"
	"hash/fnv"
	"math/rand"
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

	// Scenarios filters the scenario axis by name. Empty runs all of
	// ChaosScenarioNames.
	Scenarios []string

	// Configs is the protocol-ablation axis. Empty runs Configurations
	// (the paper's Table I: SWIM, LHA-Probe, LHA-Suspicion, Buddy
	// System, Lifeguard).
	Configs []ProtocolConfig
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
	if len(p.Configs) == 0 {
		p.Configs = Configurations
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

// chaosScenario is one row of the scenario matrix: a named builder
// appending its fault script for the victim set over [0, FaultFor).
type chaosScenario struct {
	name string
	desc string
	// build appends the scenario's transitions to s. victims is the
	// scenario's victim set, peers every member name; rng is a
	// dedicated deterministic stream (same across configs, so every
	// column of a row sees identical faults).
	build func(s *sim.FaultSchedule, victims, peers []string, p ChaosParams, rng *rand.Rand)
}

// degrade slows victims' processing for the whole window.
func buildDegraded(s *sim.FaultSchedule, victims, _ []string, p ChaosParams, _ *rand.Rand) {
	for _, v := range victims {
		s.DegradeNode(0, v, chaosDegrade)
		s.RestoreNode(p.FaultFor, v)
	}
}

// pause-flap cycles victims through total stalls with buffered inbound.
func buildPauseFlap(s *sim.FaultSchedule, victims, _ []string, p ChaosParams, _ *rand.Rand) {
	for _, v := range victims {
		for t := time.Duration(0); t < p.FaultFor; t += chaosPauseFor + chaosWakeFor {
			end := t + chaosPauseFor
			if end > p.FaultFor {
				end = p.FaultFor
			}
			s.PauseNode(t, v, sim.PauseBuffer)
			s.ResumeNode(end, v)
		}
	}
}

// asym-partition makes each victim half-open: it cannot send to a
// random chaosPartitionFraction of peers but still receives from
// everyone.
func buildAsymPartition(s *sim.FaultSchedule, victims, peers []string, p ChaosParams, rng *rand.Rand) {
	for _, v := range victims {
		others := make([]string, 0, len(peers)-1)
		for _, o := range peers {
			if o != v {
				others = append(others, o)
			}
		}
		k := int(chaosPartitionFraction * float64(len(others)))
		for _, i := range rng.Perm(len(others))[:k] {
			o := others[i]
			s.FailLink(0, v, o, true)
			s.FailLink(p.FaultFor, v, o, false)
		}
	}
}

// lossy-link impairs both directions between each victim and everyone.
func buildLossyLink(s *sim.FaultSchedule, victims, peers []string, p ChaosParams, _ *rand.Rand) {
	for _, v := range victims {
		for _, o := range peers {
			if o == v {
				continue
			}
			s.ImpairLink(0, v, o, chaosLink)
			s.ImpairLink(0, o, v, chaosLink)
			s.HealLink(p.FaultFor, v, o)
			s.HealLink(p.FaultFor, o, v)
		}
	}
}

// combined deals the victims round-robin across the three fault
// classes — degraded, flapping, lossy — so every class is present
// whenever there are at least three victims (fewer victims cover the
// classes in that priority order).
func buildCombined(s *sim.FaultSchedule, victims, peers []string, p ChaosParams, rng *rand.Rand) {
	var groups [3][]string
	for i, v := range victims {
		groups[i%3] = append(groups[i%3], v)
	}
	buildDegraded(s, groups[0], peers, p, rng)
	buildPauseFlap(s, groups[1], peers, p, rng)
	buildLossyLink(s, groups[2], peers, p, rng)
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

// ChaosCellResult is one (scenario, configuration) cell of the chaos
// matrix. It contains no pointers, slices or maps, so whole-struct
// equality is the determinism check.
type ChaosCellResult struct {
	// Scenario and Config identify the cell.
	Scenario, Config string

	// Victims and Crashes are the fault-set sizes.
	Victims, Crashes int

	// FP counts false positives: dead events about members that were
	// alive at the time — subjects outside the crash set (victims
	// included: they are impaired, not dead), plus crash-set members
	// declared dead before their crash actually landed. FPHealthy
	// counts those raised at observers outside the crash set.
	FP, FPHealthy int

	// VictimDeaths is the slice of FP whose subject is a victim — an
	// impaired-but-alive member wrongly declared dead, the paper's
	// degraded-member false positive. FP − VictimDeaths is collateral
	// damage on completely healthy members.
	VictimDeaths int

	// CrashesDetected counts crashed members whose failure was detected
	// somewhere; CrashDetect summarizes crash-to-first-detection
	// latency in seconds.
	CrashesDetected int
	CrashDetect     stats.Summary

	// Suspicions counts suspicion episodes about non-crashed members
	// (per observer–subject pair); Refuted counts those cleared by a
	// refutation, and RefuteLatency summarizes suspect-to-alive latency
	// in seconds.
	Suspicions, Refuted int
	RefuteLatency       stats.Summary

	// MsgsSent and BytesSent total transport load over the run.
	MsgsSent, BytesSent int64

	// Duplicated, Reordered and FaultDrops total the fault engine's
	// packet interventions (duplicate deliveries, reorder hold-backs,
	// fault-injected drops).
	Duplicated, Reordered, FaultDrops int64

	// EventDigest is an FNV-64a digest of the full membership event
	// log — the byte-identical-replay fingerprint for this cell.
	EventDigest string
}

// ChaosResult holds one chaos matrix run.
type ChaosResult struct {
	// Params echoes the resolved parameters.
	Params ChaosParams

	// Cells holds one result per (scenario, configuration), scenario-
	// major in ChaosScenarioNames × Params.Configs order.
	Cells []ChaosCellResult
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
// install the scenario's fault schedule plus the crash set, run out the
// fault window and settle phase, and score. It returns the scored cell
// and the full membership event log (the raw material for invariant
// harnesses). cc.N is taken from the params and must be left zero.
func RunChaosCell(cc ClusterConfig, scenario string, p ChaosParams) (ChaosCellResult, []metrics.Event, error) {
	p = p.withDefaults()
	if p.Victims+p.Crashes > p.N-1 {
		return ChaosCellResult{}, nil, fmt.Errorf(
			"experiment: chaos fault sets need %d members (%d victims + %d crashes) but only %d are eligible (N=%d minus the join seed)",
			p.Victims+p.Crashes, p.Victims, p.Crashes, p.N-1, p.N)
	}
	if p.CrashAt >= p.FaultFor {
		return ChaosCellResult{}, nil, fmt.Errorf(
			"experiment: chaos CrashAt %v must fall inside the %v fault window", p.CrashAt, p.FaultFor)
	}
	sc, scIndex, err := findChaosScenario(scenario)
	if err != nil {
		return ChaosCellResult{}, nil, err
	}
	cc.N = p.N
	c, err := NewCluster(cc)
	if err != nil {
		return ChaosCellResult{}, nil, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return ChaosCellResult{}, nil, err
	}

	victims, crashed := chaosCast(p, cc.Seed)
	sched := &sim.FaultSchedule{}
	// The schedule RNG depends on seed and scenario, never on the
	// configuration, so every column of a matrix row sees identical
	// faults.
	rng := rand.New(rand.NewSource(cc.Seed*104729 + int64(scIndex)))
	sc.build(sched, victims, c.allNames(), p, rng)
	for _, name := range crashed {
		sched.CrashNode(p.CrashAt, name)
	}

	faultStart := c.Sched.Now()
	crashStart := faultStart.Add(p.CrashAt)
	c.Net.InstallFaults(sched)
	c.Sched.RunFor(p.FaultFor + p.Settle)

	events := c.Events.Events()
	res := ChaosCellResult{
		Scenario: sc.name,
		Config:   cc.Protocol.Name,
		Victims:  len(victims),
		Crashes:  len(crashed),
	}
	// Scored from the fault start, with the crashes departing at
	// crashStart: a dead event about a crash-set member before its crash
	// landed is a false positive like any other.
	gone := departAll(crashed, crashStart, true)
	score := scoreDeaths(events, faultStart, gone)
	res.FP, res.FPHealthy = score.FP, score.FPHealthy
	for _, v := range victims {
		res.VictimDeaths += score.FPBySubject[v]
	}
	var detect []float64
	for _, name := range crashed {
		if first, _, n := score.detection(name, nil); n > 0 {
			detect = append(detect, first.Seconds())
		}
	}
	res.CrashesDetected = len(detect)
	res.CrashDetect = stats.Summarize(detect)
	var refLat []float64
	res.Suspicions, res.Refuted, refLat = refutationLatencies(events, gone, faultStart)
	res.RefuteLatency = stats.Summarize(refLat)
	total := c.Net.TotalStats()
	res.MsgsSent = total.MsgsSent
	res.BytesSent = total.BytesSent
	res.Duplicated = total.Duplicated
	res.Reordered = total.Reordered
	res.FaultDrops = total.DropsFault
	res.EventDigest = eventDigest(events)
	return res, events, nil
}

// chaosCells enumerates the scenario × configuration matrix, scenario-
// major, every cell at cc's seed with cc.Protocol overridden.
func chaosCells(cc ClusterConfig, p ChaosParams) []Cell {
	p = p.withDefaults()
	scenarios := p.Scenarios
	if len(scenarios) == 0 {
		scenarios = ChaosScenarioNames()
	}
	cells := make([]Cell, 0, len(scenarios)*len(p.Configs))
	for _, name := range scenarios {
		for _, proto := range p.Configs {
			name, cellCC := name, cc
			cellCC.Protocol = proto
			cells = append(cells, Cell{
				Label: fmt.Sprintf("chaos %s/%s", name, proto.Name),
				Run: func() (any, error) {
					cell, _, err := RunChaosCell(cellCC, name, p)
					return cell, err
				},
			})
		}
	}
	return cells
}

// chaosResult assembles a matrix run from chaosCells' outputs.
func chaosResult(p ChaosParams, outs []any) (ChaosResult, error) {
	cells, err := outsAs[ChaosCellResult](outs)
	return ChaosResult{Params: p.withDefaults(), Cells: cells}, err
}

// RunChaos executes the full scenario × configuration matrix with one
// shared seed. cc.Protocol is overridden per cell; cc.N must be left
// zero (the params size the cluster).
func RunChaos(cc ClusterConfig, p ChaosParams) (ChaosResult, error) {
	outs, err := runCells(chaosCells(cc, p), 1, nil)
	if err != nil {
		return ChaosResult{}, err
	}
	return chaosResult(p, outs)
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

// eventDigest fingerprints a membership event log. Two runs with
// byte-identical protocol behaviour produce equal digests.
func eventDigest(events []metrics.Event) string {
	h := fnv.New64a()
	for _, ev := range events {
		fmt.Fprintf(h, "%d|%s|%s|%d|%d\n",
			ev.Time.UnixNano(), ev.Observer, ev.Subject, ev.Type, ev.Incarnation)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// FormatChaos renders a chaos matrix as the ablation table: one row per
// cell with false positives, crash detection and refutation behaviour.
func FormatChaos(r ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos matrix: N=%d, %d victims, %d crashes, fault window %v (crashes at +%v)\n",
		r.Params.N, r.Params.Victims, r.Params.Crashes, r.Params.FaultFor, r.Params.CrashAt)
	fmt.Fprintf(&b, "%-14s %-14s %4s %4s %6s %7s %10s %6s %8s %10s %6s %6s\n",
		"Scenario", "Config", "FP", "FP-", "VicDie", "CrashOK", "MedDet(s)", "Susp", "Refuted", "MedRef(s)", "Dup", "Reord")
	for _, cell := range r.Cells {
		fmt.Fprintf(&b, "%-14s %-14s %4d %4d %6d %4d/%-2d %10.2f %6d %8d %10.2f %6d %6d\n",
			cell.Scenario, cell.Config, cell.FP, cell.FPHealthy, cell.VictimDeaths,
			cell.CrashesDetected, cell.Crashes, cell.CrashDetect.Median,
			cell.Suspicions, cell.Refuted, cell.RefuteLatency.Median,
			cell.Duplicated, cell.Reordered)
	}
	return b.String()
}
