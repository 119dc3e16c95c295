package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"lifeguard/internal/metrics"
	"lifeguard/internal/sim"
	"lifeguard/internal/stats"
)

// WANZone sizes one zone of a WAN experiment.
type WANZone struct {
	// Name is the zone name in the topology ("us-east", …).
	Name string

	// Members is the number of members placed in the zone.
	Members int
}

// WANParams parameterizes a WAN experiment: a multi-zone cluster on a
// topology-aware network, a coordinate-convergence phase scored
// against the simulator's ground-truth RTTs, and a per-zone failure
// phase scored for detection latency and false positives.
type WANParams struct {
	// Zones lists the zones and their sizes. Members are assigned to
	// zones in contiguous index blocks, in order.
	Zones []WANZone

	// Intra is the within-zone link profile.
	Intra sim.LinkProfile

	// Pairs maps zone pairs (unordered; put both names) to their link
	// profiles. Pairs not listed fall back to the topology's InterZone
	// default.
	Pairs map[[2]string]sim.LinkProfile

	// Converge is how long coordinates settle after the cluster
	// quiesces, before scoring. Each member takes roughly one RTT
	// observation per protocol period, so this bounds samples/member.
	Converge time.Duration

	// SamplePairs is the number of random member pairs scored for
	// coordinate error. Zero means 2000.
	SamplePairs int

	// FailPerZone is the number of members crashed in each zone for
	// the detection phase. Zero skips the phase.
	FailPerZone int

	// DetectHorizon is how long the detection phase runs after the
	// failures. Zero means 90 s.
	DetectHorizon time.Duration
}

// DefaultWANZones returns the canonical 4-zone WAN used by lifebench
// and tests: two US zones, Europe and Asia-Pacific, with realistic
// inter-zone latencies, membersPerZone members each.
func DefaultWANZones(membersPerZone int) ([]WANZone, map[[2]string]sim.LinkProfile) {
	zones := []WANZone{
		{Name: "us-east", Members: membersPerZone},
		{Name: "us-west", Members: membersPerZone},
		{Name: "eu", Members: membersPerZone},
		{Name: "ap", Members: membersPerZone},
	}
	ms := time.Millisecond
	pair := func(base time.Duration) sim.LinkProfile {
		// 10% jitter around the base one-way delay.
		return sim.LinkProfile{Base: base, Jitter: base / 10}
	}
	pairs := map[[2]string]sim.LinkProfile{
		{"us-east", "us-west"}: pair(30 * ms),
		{"us-east", "eu"}:      pair(40 * ms),
		{"us-east", "ap"}:      pair(90 * ms),
		{"us-west", "eu"}:      pair(70 * ms),
		{"us-west", "ap"}:      pair(60 * ms),
		{"eu", "ap"}:           pair(120 * ms),
	}
	return zones, pairs
}

// WANZoneResult is the per-zone slice of a WAN run.
type WANZoneResult struct {
	// Zone is the zone name.
	Zone string

	// Members is the number of members in the zone.
	Members int

	// Failed and Detected count crashed members and those whose
	// failure was detected somewhere.
	Failed, Detected int

	// FirstDetect summarizes, in seconds, the time from failure to the
	// first dead event about each detected member.
	FirstDetect stats.Summary

	// CrossZoneDetect summarizes, in seconds, the time from failure to
	// the first dead event about each member observed in a *different*
	// zone — when the failure became actionable for the rest of the
	// WAN, the paper-level number the adaptive configuration is scored
	// on.
	CrossZoneDetect stats.Summary

	// FP counts false-positive dead events about healthy members of
	// this zone.
	FP int
}

// WANResult holds one WAN run's metrics.
type WANResult struct {
	Params WANParams

	// N is the total cluster size.
	N int

	// PairsScored is the number of member pairs behind CoordErr.
	PairsScored int

	// CoordErr summarizes the relative RTT-estimation error
	// |estimate − truth| / truth over the scored pairs, where estimate
	// is the coordinate distance between the pair's members and truth
	// is the topology's expected RTT.
	CoordErr stats.Summary

	// MeanAbsErr is the mean absolute estimation error in seconds.
	MeanAbsErr float64

	// PerZone has one entry per zone, in Params.Zones order.
	PerZone []WANZoneResult

	// CrossZoneDetect summarizes cross-zone first-detection latency in
	// seconds over every crashed member (all zones pooled); see
	// WANZoneResult.CrossZoneDetect.
	CrossZoneDetect stats.Summary

	// FP and FPHealthy count false positives cluster-wide during the
	// detection phase (FPHealthy: observer also healthy).
	FP, FPHealthy int

	// MsgsSent and BytesSent total the transport load over the whole
	// run — the bandwidth side of the adaptive-versus-static tradeoff.
	MsgsSent, BytesSent int64

	// AdaptiveTimeouts and AdaptiveFallbacks count probe rounds that
	// used an RTT-derived timeout versus ones that fell back to the
	// static timeout while coordinates were cold, cluster-wide.
	AdaptiveTimeouts, AdaptiveFallbacks int64

	// RelayNear and RelayRandom count indirect-probe relays chosen by
	// coordinate proximity versus uniformly (diversity slice + cold
	// fill) under TopologyAware.
	RelayNear, RelayRandom int64

	// GossipNear and GossipEscape count gossip targets chosen by
	// proximity versus the uniform escape slice under
	// TopologyAware.
	GossipNear, GossipEscape int64

	// ObsRTTSamples is the number of telemetry RTT samples behind the
	// observed-RTT scoring (zero when the cluster ran without a
	// telemetry recorder).
	ObsRTTSamples int

	// ObsRTTPairs scores, per zone pair, the members' *observed*
	// direct-ack RTT distribution (from the telemetry recorder — real
	// measurements, not coordinate estimates) against the topology's
	// ground-truth RTT.
	ObsRTTPairs []WANPairRTTErr

	// ObsRTTP50ErrMedian and ObsRTTP90ErrMedian are the medians, over
	// the zone pairs, of the per-pair p50 and p90 relative errors.
	ObsRTTP50ErrMedian, ObsRTTP90ErrMedian float64
}

// WANPairRTTErr scores one zone pair's observed RTT distribution
// against the simulator's ground truth.
type WANPairRTTErr struct {
	// ZoneA and ZoneB name the pair (sorted; equal for intra-zone).
	ZoneA, ZoneB string

	// Samples is the number of RTT measurements in the pair.
	Samples int

	// ObsP50S and ObsP90S are the observed RTT quantiles in seconds.
	ObsP50S, ObsP90S float64

	// TruthS is the topology's expected RTT in seconds (averaged over
	// the contributing member pairs).
	TruthS float64

	// P50RelErr and P90RelErr are |observed − truth| / truth at the
	// respective quantiles.
	P50RelErr, P90RelErr float64
}

// BuildWANTopology constructs the sim topology for the given zones:
// contiguous member-index blocks per zone, the intra-zone profile on
// every zone with itself, and the listed pair profiles.
func BuildWANTopology(zones []WANZone, intra sim.LinkProfile, pairs map[[2]string]sim.LinkProfile) (*sim.Topology, int) {
	topo := sim.NewTopology()
	if intra.Base > 0 || intra.Jitter > 0 {
		topo.IntraZone = intra
	}
	idx := 0
	for _, z := range zones {
		for i := 0; i < z.Members; i++ {
			topo.SetZone(NodeName(idx), z.Name)
			idx++
		}
		topo.SetZonePair(z.Name, z.Name, topo.IntraZone)
	}
	for pair, p := range pairs {
		topo.SetZonePair(pair[0], pair[1], p)
	}
	return topo, idx
}

// RunWAN executes one WAN experiment. cc.N and cc.Net.Topology are
// derived from the params and must be left zero.
func RunWAN(cc ClusterConfig, p WANParams) (WANResult, error) {
	if len(p.Zones) == 0 {
		zones, pairs := DefaultWANZones(32)
		p.Zones, p.Pairs = zones, pairs
	}
	if p.Intra.Base == 0 && p.Intra.Jitter == 0 {
		p.Intra = sim.LinkProfile{Base: time.Millisecond, Jitter: 200 * time.Microsecond}
	}
	if p.Converge <= 0 {
		p.Converge = 5 * time.Minute
	}
	if p.SamplePairs <= 0 {
		p.SamplePairs = 2000
	}
	if p.DetectHorizon <= 0 {
		p.DetectHorizon = 90 * time.Second
	}

	topo, n := BuildWANTopology(p.Zones, p.Intra, p.Pairs)
	cc.N = n
	cc.Net.Topology = topo

	c, err := NewCluster(cc)
	if err != nil {
		return WANResult{}, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return WANResult{}, err
	}

	// Phase 1: coordinate convergence, then score estimates against the
	// topology's ground truth using each member's own coordinate.
	c.Sched.RunFor(p.Converge)
	res := WANResult{Params: p, N: n}
	res.CoordErr, res.MeanAbsErr, res.PairsScored = scoreCoordinates(c, topo, cc.Seed, p.SamplePairs)
	res.ObsRTTPairs, res.ObsRTTSamples, err = scoreObservedRTT(c, topo)
	if err != nil {
		return WANResult{}, err
	}
	res.ObsRTTP50ErrMedian, res.ObsRTTP90ErrMedian = pairErrMedians(res.ObsRTTPairs)

	// Phase 2: crash FailPerZone members per zone, watch detection.
	var failed []string
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
				failed = append(failed, name)
				failedByZone[z.Name] = append(failedByZone[z.Name], name)
			}
		}
	}
	failStart := c.Sched.Now()
	if len(failed) > 0 {
		c.SetAnomalous(failed, true)
		c.Sched.RunFor(p.DetectHorizon)
	}

	score := scoreDeaths(c.Events.Events(), failStart, departAll(failed, failStart, true))
	res.FP, res.FPHealthy = score.FP, score.FPHealthy

	// Per-zone breakdown: first detection of each failed member
	// (anywhere, and at an observer in a different zone — the moment
	// the failure became visible to the rest of the WAN), FPs by the
	// subject's zone.
	fpByZone := make(map[string]int)
	for subject, n := range score.FPBySubject {
		fpByZone[topo.Zone(subject)] += n
	}
	var crossAll []float64
	for _, z := range p.Zones {
		zr := WANZoneResult{Zone: z.Name, Members: z.Members, FP: fpByZone[z.Name]}
		elsewhere := func(observer string) bool { return topo.Zone(observer) != z.Name }
		var lat, cross []float64
		for _, name := range failedByZone[z.Name] {
			zr.Failed++
			if first, _, n := score.detection(name, nil); n > 0 {
				zr.Detected++
				lat = append(lat, first.Seconds())
			}
			if first, _, n := score.detection(name, elsewhere); n > 0 {
				cross = append(cross, first.Seconds())
			}
		}
		zr.FirstDetect = stats.Summarize(lat)
		zr.CrossZoneDetect = stats.Summarize(cross)
		crossAll = append(crossAll, cross...)
		res.PerZone = append(res.PerZone, zr)
	}
	res.CrossZoneDetect = stats.Summarize(crossAll)

	total := c.Net.TotalStats()
	res.MsgsSent = total.MsgsSent
	res.BytesSent = total.BytesSent
	res.AdaptiveTimeouts = c.Sink.Get(metrics.CounterAdaptiveTimeouts)
	res.AdaptiveFallbacks = c.Sink.Get(metrics.CounterAdaptiveFallbacks)
	res.RelayNear = c.Sink.Get(metrics.CounterRelayNearPicks)
	res.RelayRandom = c.Sink.Get(metrics.CounterRelayRandomPicks)
	res.GossipNear = c.Sink.Get(metrics.CounterGossipNearPicks)
	res.GossipEscape = c.Sink.Get(metrics.CounterGossipEscapePicks)
	return res, nil
}

// WANComparison holds one same-seed adaptive-versus-static pair of WAN
// runs: identical topology, identical failures, the only difference
// being ClusterConfig.TopologyAware.
type WANComparison struct {
	// Static is the run with the coordinate-driven extensions off.
	Static WANResult

	// Adaptive is the run with RTT-adaptive probe timeouts,
	// coordinate-aware relay selection, and latency-biased gossip on.
	Adaptive WANResult
}

// wanCells enumerates the comparison's two runs, static then adaptive:
// cc and p shared, only TopologyAware differing.
func wanCells(cc ClusterConfig, p WANParams) []Cell {
	cell := func(label string, adaptive bool) Cell {
		cc := cc
		cc.TopologyAware = adaptive
		return Cell{Label: label, Run: func() (any, error) { return RunWAN(cc, p) }}
	}
	return []Cell{cell("wan static", false), cell("wan adaptive", true)}
}

// wanComparison pairs wanCells' outputs.
func wanComparison(outs []any) (WANComparison, error) {
	runs, err := outsAs[WANResult](outs)
	if err != nil {
		return WANComparison{}, err
	}
	return WANComparison{Static: runs[0], Adaptive: runs[1]}, nil
}

// RunWANComparison executes the WAN experiment twice with the same seed
// and parameters — once static, once topology-aware — so detection
// latency, false positives and bandwidth can be compared directly.
func RunWANComparison(cc ClusterConfig, p WANParams) (WANComparison, error) {
	outs, err := runCells(wanCells(cc, p), 1, nil)
	if err != nil {
		return WANComparison{}, err
	}
	return wanComparison(outs)
}

// scoreObservedRTT groups the cluster's telemetry RTT samples by zone
// pair and scores the observed p50/p90 against the topology's
// ground-truth RTT — the first telemetry-derived record metric. Returns
// nil with telemetry off, and an error if the buffer evicted partitions
// (whole (origin, peer) streams would be missing from the score).
func scoreObservedRTT(c *Cluster, topo *sim.Topology) ([]WANPairRTTErr, int, error) {
	if c.Telem == nil {
		return nil, 0, nil
	}
	if ev := c.Telem.Evictions(); ev > 0 {
		return nil, 0, fmt.Errorf("experiment: telemetry evicted %d partitions during a scored run; observed-RTT metrics would score a partial sample set", ev)
	}
	// ForEach visits partitions in unspecified (map) order and float
	// addition is not associative, so collect per-partition contributions
	// first and fix the accumulation order by sorting on the key: the CI
	// determinism guard byte-diffs same-seed records across processes.
	type contrib struct {
		key   RTTPair
		rtts  []float64
		truth float64 // ground-truth RTT for the member pair, seconds
	}
	byPair := make(map[[2]string][]contrib)
	total := 0
	c.Telem.ForEach(func(k RTTPair, ss []time.Duration) {
		if len(ss) == 0 {
			return
		}
		za, zb := topo.Zone(k.Origin), topo.Zone(k.Peer)
		if za > zb {
			za, zb = zb, za
		}
		rtts := make([]float64, len(ss))
		for i, s := range ss {
			rtts[i] = s.Seconds()
		}
		pk := [2]string{za, zb}
		byPair[pk] = append(byPair[pk], contrib{
			key:   k,
			rtts:  rtts,
			truth: topo.GroundTruthRTT(k.Origin, k.Peer).Seconds(),
		})
		total += len(ss)
	})

	keys := make([][2]string, 0, len(byPair))
	for k := range byPair {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	out := make([]WANPairRTTErr, 0, len(keys))
	for _, k := range keys {
		cs := byPair[k]
		sort.Slice(cs, func(i, j int) bool {
			a, b := cs[i].key, cs[j].key
			if a.Origin != b.Origin {
				return a.Origin < b.Origin
			}
			return a.Peer < b.Peer
		})
		var rtts []float64
		truthSum := 0.0
		for _, cb := range cs {
			rtts = append(rtts, cb.rtts...)
			truthSum += cb.truth * float64(len(cb.rtts))
		}
		truth := truthSum / float64(len(rtts))
		pe := WANPairRTTErr{
			ZoneA:   k[0],
			ZoneB:   k[1],
			Samples: len(rtts),
			ObsP50S: stats.Percentile(rtts, 50),
			ObsP90S: stats.Percentile(rtts, 90),
			TruthS:  truth,
		}
		if truth > 0 {
			pe.P50RelErr = math.Abs(pe.ObsP50S-truth) / truth
			pe.P90RelErr = math.Abs(pe.ObsP90S-truth) / truth
		}
		out = append(out, pe)
	}
	return out, total, nil
}

// pairErrMedians returns the medians, over the zone pairs, of the
// per-pair p50 and p90 relative errors.
func pairErrMedians(pairs []WANPairRTTErr) (p50, p90 float64) {
	if len(pairs) == 0 {
		return 0, 0
	}
	e50 := make([]float64, len(pairs))
	e90 := make([]float64, len(pairs))
	for i, p := range pairs {
		e50[i], e90[i] = p.P50RelErr, p.P90RelErr
	}
	return stats.Percentile(e50, 50), stats.Percentile(e90, 50)
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

// FormatWAN renders one WAN result: the coordinate-estimation quality
// line and the per-zone detection table.
func FormatWAN(r WANResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "WAN cluster: %d members, %d zones; coordinate error over %d pairs: median %.1f%%, p99 %.1f%%, mean abs %.1fms\n",
		r.N, len(r.Params.Zones), r.PairsScored,
		r.CoordErr.Median*100, r.CoordErr.P99*100, r.MeanAbsErr*1000)
	if r.ObsRTTSamples > 0 {
		fmt.Fprintf(&b, "observed RTT (telemetry, %d samples over %d zone pairs): p50 err median %.1f%%, p90 err median %.1f%%\n",
			r.ObsRTTSamples, len(r.ObsRTTPairs), r.ObsRTTP50ErrMedian*100, r.ObsRTTP90ErrMedian*100)
	}
	fmt.Fprintf(&b, "%-10s %8s %7s %9s %11s %11s %11s %6s\n",
		"Zone", "Members", "Failed", "Detected", "MedDet(s)", "MaxDet(s)", "XZoneMed(s)", "FP")
	for _, z := range r.PerZone {
		fmt.Fprintf(&b, "%-10s %8d %7d %9d %11.2f %11.2f %11.2f %6d\n",
			z.Zone, z.Members, z.Failed, z.Detected,
			z.FirstDetect.Median, z.FirstDetect.Max, z.CrossZoneDetect.Median, z.FP)
	}
	fmt.Fprintf(&b, "cluster-wide FP: %d (at healthy observers: %d); cross-zone detect median %.2fs; %d msgs, %.1f MB\n",
		r.FP, r.FPHealthy, r.CrossZoneDetect.Median, r.MsgsSent, float64(r.BytesSent)/1e6)
	if r.AdaptiveTimeouts+r.AdaptiveFallbacks > 0 {
		fmt.Fprintf(&b, "adaptive: %d RTT-derived probe timeouts (%d cold fallbacks), relays %d near/%d random, gossip %d near/%d escape\n",
			r.AdaptiveTimeouts, r.AdaptiveFallbacks, r.RelayNear, r.RelayRandom, r.GossipNear, r.GossipEscape)
	}
	return b.String()
}

// FormatWANComparison renders an adaptive-versus-static WAN pair with
// the headline deltas.
func FormatWANComparison(c WANComparison) string {
	var b strings.Builder
	b.WriteString("--- static (uniform timeouts and peer selection) ---\n")
	b.WriteString(FormatWAN(c.Static))
	b.WriteString("--- adaptive (RTT-adaptive timeouts, coordinate-aware relays, latency-biased gossip) ---\n")
	b.WriteString(FormatWAN(c.Adaptive))
	fmt.Fprintf(&b, "delta: cross-zone detect median %.2fs -> %.2fs, FP %d -> %d, bytes %.1f MB -> %.1f MB\n",
		c.Static.CrossZoneDetect.Median, c.Adaptive.CrossZoneDetect.Median,
		c.Static.FP, c.Adaptive.FP,
		float64(c.Static.BytesSent)/1e6, float64(c.Adaptive.BytesSent)/1e6)
	return b.String()
}
