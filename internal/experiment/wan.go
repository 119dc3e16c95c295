package experiment

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"lifeguard/internal/sim"
	"lifeguard/internal/stats"
)

// wanZone sizes one zone of a WAN experiment.
type wanZone struct {
	// Name is the zone name in the topology ("us-east", …).
	Name string

	// Members is the number of members placed in the zone.
	Members int
}

// wanParams parameterizes a WAN experiment: a multi-zone cluster on a
// zone-topology network, a coordinate-convergence phase scored
// against the simulator's ground-truth RTTs, and a per-zone failure
// phase scored for detection latency and false positives.
type wanParams struct {
	// Zones lists the zones and their sizes. Members are assigned to
	// zones in contiguous index blocks, in order.
	Zones []wanZone

	// Pairs maps zone pairs (unordered; put both names) to their
	// one-way delays. Pairs not listed fall back to the topology's
	// InterZone default. Within a zone the delay is 1 ms + [0, 200 µs).
	Pairs map[[2]string]sim.DelayDist

	// Converge is how long coordinates settle after the cluster
	// quiesces, before scoring. Each member takes roughly one RTT
	// observation per protocol period, so this bounds samples/member.
	Converge time.Duration

	// SamplePairs, FailPerZone and DetectHorizon stay parameters, not
	// constants, because one-seed tests run their own values and
	// constants would change those tests' data: the small-cluster WAN
	// tests score 500 pairs and crash 0–2 members per zone over a
	// 45–60 s detection phase.

	// SamplePairs is the number of random member pairs scored for
	// coordinate error (2000 in the scenario; a parameter, see above).
	SamplePairs int

	// FailPerZone is the number of members crashed in each zone for
	// the detection phase (3 in the scenario). Zero skips the phase.
	FailPerZone int

	// DetectHorizon is how long the detection phase runs after the
	// failures (90 s in the scenario; a parameter, see above).
	DetectHorizon time.Duration
}

// defaultWANZones returns the canonical 4-zone WAN used by lifebench
// and tests: two US zones, Europe and Asia-Pacific, with realistic
// inter-zone latencies, membersPerZone members each.
func defaultWANZones(membersPerZone int) ([]wanZone, map[[2]string]sim.DelayDist) {
	zones := []wanZone{
		{Name: "us-east", Members: membersPerZone},
		{Name: "us-west", Members: membersPerZone},
		{Name: "eu", Members: membersPerZone},
		{Name: "ap", Members: membersPerZone},
	}
	ms := time.Millisecond
	pair := func(base time.Duration) sim.DelayDist {
		// 10% jitter around the base one-way delay.
		return sim.DelayDist{Base: base, Jitter: base / 10}
	}
	pairs := map[[2]string]sim.DelayDist{
		{"us-east", "us-west"}: pair(30 * ms),
		{"us-east", "eu"}:      pair(40 * ms),
		{"us-east", "ap"}:      pair(90 * ms),
		{"us-west", "eu"}:      pair(70 * ms),
		{"us-west", "ap"}:      pair(60 * ms),
		{"eu", "ap"}:           pair(120 * ms),
	}
	return zones, pairs
}

// runWAN executes one WAN experiment and returns its record
// (docs/LIFEBENCH.md lists its keys). The cluster size and topology
// come from p's zones, replacing cc.N and cc.Net.Topology.
func runWAN(cc ClusterConfig, p wanParams) (Record, error) {
	c, topo, err := startWANCluster(cc, p)
	if err != nil {
		return Record{}, err
	}
	defer c.Shutdown()
	n := len(c.Nodes)

	// Phase 1: coordinate convergence, then score estimates against the
	// topology's ground truth using each member's own coordinate.
	c.Sched.RunFor(p.Converge)
	m := make(map[string]float64)
	coordErr, meanAbsErr, pairsScored := scoreCoordinates(c, topo, cc.Seed, p.SamplePairs)
	m["coord_rel_err_median"] = coordErr.Median
	m["coord_rel_err_p99"] = coordErr.P99
	m["coord_abs_err_mean_s"] = meanAbsErr
	m["pairs_scored"] = float64(pairsScored)
	scoreObservedRTT(c, topo, m)

	// Phase 2: crash FailPerZone members per zone, watch detection.
	var s script
	failedByZone := make(map[string][]string)
	if p.FailPerZone > 0 {
		rng := rand.New(rand.NewSource(cc.Seed + 1))
		idx := 0
		for _, z := range p.Zones {
			lo, hi := idx, idx+z.Members
			idx = hi
			if lo == 0 {
				lo = 1 // never crash the join seed
			}
			perm := rng.Perm(hi - lo)
			k := p.FailPerZone
			if k > len(perm) {
				k = len(perm)
			}
			for _, off := range perm[:k] {
				name := NodeName(lo + off)
				s = append(s, entry{op: opCrash, node: name})
				failedByZone[z.Name] = append(failedByZone[z.Name], name)
			}
		}
	}
	r := c.play(s)
	if len(s) > 0 {
		if err := r.runTo(p.DetectHorizon); err != nil {
			return Record{}, err
		}
	}

	score := scoreDeaths(c.Events.Events(), r.start, r.gone, r.faulted)
	m["fp"], m["fp_healthy"] = float64(score.FP), float64(score.FPHealthy)

	// Per-zone breakdown: first detection of each failed member
	// (anywhere, and at an observer in a different zone), FPs by the
	// subject's zone.
	fpByZone := make(map[string]int)
	for subject, n := range score.FPBySubject {
		fpByZone[topo.Zone(subject)] += n
	}
	var crossAll []float64
	for _, z := range p.Zones {
		elsewhere := func(observer string) bool { return topo.Zone(observer) != z.Name }
		detected := 0
		var lat, cross []float64
		for _, name := range failedByZone[z.Name] {
			if first, _, n := score.detection(name, nil); n > 0 {
				detected++
				lat = append(lat, first.Seconds())
			}
			if first, _, n := score.detection(name, elsewhere); n > 0 {
				cross = append(cross, first.Seconds())
			}
		}
		first := stats.Summarize(lat)
		m["members_"+z.Name] = float64(z.Members)
		m["detect_median_s_"+z.Name] = first.Median
		m["detect_max_s_"+z.Name] = first.Max
		m["detect_cross_zone_median_s_"+z.Name] = stats.Summarize(cross).Median
		m["detected_"+z.Name] = float64(detected)
		m["failed_"+z.Name] = float64(len(failedByZone[z.Name]))
		m["fp_"+z.Name] = float64(fpByZone[z.Name])
		crossAll = append(crossAll, cross...)
	}
	crossZone := stats.Summarize(crossAll)
	m["detect_cross_zone_median_s"] = crossZone.Median
	m["detect_cross_zone_p99_s"] = crossZone.P99

	total := c.Net.TotalStats()
	m["msgs_sent"] = float64(total.MsgsSent)
	m["bytes_sent"] = float64(total.BytesSent)
	return Record{
		Experiment: "wan",
		Config:     cc.Protocol.Name,
		Params: map[string]any{
			"members":       n,
			"zones":         len(p.Zones),
			"fail_per_zone": p.FailPerZone,
			"converge_s":    p.Converge.Seconds(),
		},
		Metrics: m,
	}, nil
}

// startWANCluster builds the cluster p's zones describe on a topology
// of their delays, members filling the zones in contiguous index
// blocks, and starts it.
func startWANCluster(cc ClusterConfig, p wanParams) (*Cluster, *sim.Topology, error) {
	topo := sim.NewTopology()
	topo.IntraZone = sim.DelayDist{Base: time.Millisecond, Jitter: 200 * time.Microsecond}
	n := 0
	for _, z := range p.Zones {
		for i := 0; i < z.Members; i++ {
			topo.SetZone(NodeName(n), z.Name)
			n++
		}
	}
	for pair, d := range p.Pairs {
		topo.SetZonePair(pair[0], pair[1], d)
	}
	cc.N = n
	cc.Net.Topology = topo

	c, err := NewCluster(cc)
	if err != nil {
		return nil, nil, err
	}
	if err := c.Start(Quiesce); err != nil {
		c.Shutdown()
		return nil, nil, err
	}
	return c, topo, nil
}

// scoreObservedRTT groups the cluster's telemetry RTT samples by zone
// pair and scores the observed p50/p90 against the topology's
// ground-truth RTT into m: obs_rtt_samples, the per-pair relative
// errors obs_rtt_p50_err_<a>__<b> and obs_rtt_p90_err_<a>__<b> (zone
// names sorted; equal for intra-zone), and their medians over the
// pairs. Without telemetry only the zero sample count and medians are
// set.
func scoreObservedRTT(c *Cluster, topo *sim.Topology, m map[string]float64) {
	m["obs_rtt_samples"], m["obs_rtt_p50_err_median"], m["obs_rtt_p90_err_median"] = 0, 0, 0
	if c.Telem == nil {
		return
	}
	// Float addition is not associative, so each zone pair's truth sum
	// accumulates in (origin, peer) order: the CI determinism guard
	// byte-diffs same-seed records across processes.
	keys := make([]RTTPair, 0, len(c.Telem))
	for k := range c.Telem {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Origin != keys[j].Origin {
			return keys[i].Origin < keys[j].Origin
		}
		return keys[i].Peer < keys[j].Peer
	})
	type zonePair struct {
		rtts     []float64 // seconds
		truthSum float64   // ground-truth RTT summed per sample, seconds
	}
	byPair := make(map[[2]string]*zonePair)
	total := 0
	for _, k := range keys {
		za, zb := topo.Zone(k.Origin), topo.Zone(k.Peer)
		if za > zb {
			za, zb = zb, za
		}
		pk := [2]string{za, zb}
		zp := byPair[pk]
		if zp == nil {
			zp = &zonePair{}
			byPair[pk] = zp
		}
		ss := c.Telem[k]
		for _, s := range ss {
			zp.rtts = append(zp.rtts, s.Seconds())
		}
		zp.truthSum += topo.GroundTruthRTT(k.Origin, k.Peer).Seconds() * float64(len(ss))
		total += len(ss)
	}
	m["obs_rtt_samples"] = float64(total)

	// Any zone-pair order will do: the medians sort their input.
	var e50, e90 []float64
	for k, zp := range byPair {
		truth := zp.truthSum / float64(len(zp.rtts))
		var p50, p90 float64
		if truth > 0 {
			p50 = math.Abs(stats.Percentile(zp.rtts, 50)-truth) / truth
			p90 = math.Abs(stats.Percentile(zp.rtts, 90)-truth) / truth
		}
		pair := k[0] + "__" + k[1]
		m["obs_rtt_p50_err_"+pair], m["obs_rtt_p90_err_"+pair] = p50, p90
		e50, e90 = append(e50, p50), append(e90, p90)
	}
	m["obs_rtt_p50_err_median"], m["obs_rtt_p90_err_median"] = stats.Percentile(e50, 50), stats.Percentile(e90, 50)
}

// scoreCoordinates samples random member pairs and scores coordinate
// distance against the topology's ground-truth RTT.
func scoreCoordinates(c *Cluster, topo *sim.Topology, seed int64, samplePairs int) (stats.Summary, float64, int) {
	rng := rand.New(rand.NewSource(seed + 2))
	n := len(c.Nodes)
	var relErrs []float64
	absSum := 0.0
	// Bounded attempts so disabled coordinates (every estimate nil)
	// terminate with an empty summary instead of spinning.
	for attempts := 0; len(relErrs) < samplePairs && attempts < samplePairs*50; attempts++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		a, b := c.Nodes[i], c.Nodes[j]
		ca, cb := a.Coordinate(), b.Coordinate()
		if ca == nil || cb == nil {
			continue
		}
		truth := topo.GroundTruthRTT(a.Name(), b.Name()).Seconds()
		if truth <= 0 {
			continue
		}
		est := ca.DistanceTo(cb).Seconds()
		relErrs = append(relErrs, math.Abs(est-truth)/truth)
		absSum += math.Abs(est - truth)
	}
	if len(relErrs) == 0 {
		return stats.Summary{}, 0, 0
	}
	return stats.Summarize(relErrs), absSum / float64(len(relErrs)), len(relErrs)
}
