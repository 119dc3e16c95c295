package coords

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// seedConfig is the tuning struct the seed engine was written against,
// kept with it so the reference stays independent of the constants
// the Client now uses.
type seedConfig struct {
	Dimensionality       int
	VivaldiErrorMax      float64
	VivaldiCE            float64
	VivaldiCC            float64
	AdjustmentWindowSize int
	HeightMin            float64
	LatencyFilterSize    int
	GravityRho           float64
	MaxRTT               time.Duration
	Rand                 func() float64
}

// seedDefaultConfig returns the seed's defaults (Serf's tuning of the
// Vivaldi paper's constants), with rnd as its randomness.
func seedDefaultConfig(rnd func() float64) *seedConfig {
	return &seedConfig{
		Dimensionality:       8,
		VivaldiErrorMax:      1.5,
		VivaldiCE:            0.25,
		VivaldiCC:            0.25,
		AdjustmentWindowSize: 20,
		HeightMin:            10.0e-6,
		LatencyFilterSize:    3,
		GravityRho:           150.0,
		MaxRTT:               10 * time.Second,
		Rand:                 rnd,
	}
}

// seedNewCoordinate is the seed's origin coordinate for cfg.
func seedNewCoordinate(cfg *seedConfig) *Coordinate {
	return &Coordinate{
		Vec:    make([]float64, cfg.Dimensionality),
		Error:  cfg.VivaldiErrorMax,
		Height: cfg.HeightMin,
	}
}

// seedApplyForce is the seed's Coordinate.applyForce, flooring the
// height at cfg.HeightMin.
func seedApplyForce(c *Coordinate, cfg *seedConfig, force float64, other *Coordinate, rnd func() float64, scratch []float64) {
	mag := unitVectorInto(scratch, c.Vec, other.Vec, rnd)
	for i := range c.Vec {
		c.Vec[i] += scratch[i] * force
	}
	if mag > zeroThreshold {
		c.Height = (c.Height+other.Height)*force/mag + c.Height
		c.Height = math.Max(c.Height, cfg.HeightMin)
	}
}

// seedClient is the engine the one-record Client replaced — each peer
// in two name-keyed maps, a Clone per new coordinate, a window
// allocated on first observation and written back on every sample, a
// sort.Float64s median — kept verbatim minus the methods the oracle
// does not drive, as the executable specification of the Vivaldi
// update and of the peer-facing queries. The Client must match it bit
// for bit.
type seedClient struct {
	cfg   *seedConfig
	coord *Coordinate

	// origin is a zero-value coordinate used as the gravity anchor.
	origin *Coordinate

	// latencyFilters holds the per-peer RTT sample windows.
	latencyFilters map[string][]float64

	// adjustmentSamples is the circular raw-error window feeding the
	// adjustment term.
	adjustmentSamples []float64
	adjustmentIndex   int

	// peers caches the most recent coordinate heard from each peer
	// (from pings received and acks observed), the basis for
	// EstimateRTT to members this node has not probed itself.
	peers map[string]*Coordinate

	// ranked is reusable scratch for NearestPeerIndexes, so the
	// per-gossip-tick ranking does not allocate.
	ranked []rankedPeer

	// medScratch is reusable scratch for the latency median filter.
	medScratch []float64

	// unitScratch is reusable scratch for applyForce's unit vector, so
	// the two spring steps per observation do not allocate.
	unitScratch []float64
}

// newSeedClient returns a seed engine at the origin; cfg must be
// complete (its Rand set).
func newSeedClient(cfg *seedConfig) *seedClient {
	return &seedClient{
		cfg:               cfg,
		coord:             seedNewCoordinate(cfg),
		origin:            seedNewCoordinate(cfg),
		latencyFilters:    make(map[string][]float64),
		peers:             make(map[string]*Coordinate),
		adjustmentSamples: make([]float64, max(cfg.AdjustmentWindowSize, 0)),
		unitScratch:       make([]float64, cfg.Dimensionality),
	}
}

// Witness caches a peer's coordinate without an RTT observation (the
// receive side of a ping, which knows the sender's coordinate but not
// the path RTT). Invalid coordinates are discarded; the return
// reports whether the coordinate was cached.
func (c *seedClient) Witness(peer string, coord *Coordinate) bool {
	if coord == nil || c.checkCoordinate(coord) != nil {
		return false
	}
	c.storePeer(peer, coord)
	return true
}

// storePeer caches a (validated) peer coordinate, copying into the
// existing cache entry when dimensions match so steady-state traffic
// does not allocate a Coordinate per observation.
func (c *seedClient) storePeer(peer string, coord *Coordinate) {
	if cur, ok := c.peers[peer]; ok && len(cur.Vec) == len(coord.Vec) {
		copy(cur.Vec, coord.Vec)
		cur.Error = coord.Error
		cur.Adjustment = coord.Adjustment
		cur.Height = coord.Height
		return
	}
	c.peers[peer] = coord.Clone()
}

// Observe incorporates one probe observation: the peer's coordinate and
// the measured round-trip time. Invalid inputs (malformed coordinate,
// non-positive or absurd RTT) are rejected without mutating state.
func (c *seedClient) Observe(peer string, other *Coordinate, rtt time.Duration) error {
	if other == nil {
		return fmt.Errorf("coords: nil peer coordinate")
	}
	if err := c.checkCoordinate(other); err != nil {
		return err
	}
	if rtt <= 0 || (c.cfg.MaxRTT > 0 && rtt > c.cfg.MaxRTT) {
		return fmt.Errorf("coords: RTT %v outside acceptable range (0, %v]", rtt, c.cfg.MaxRTT)
	}

	rttSeconds := c.latencyFilter(peer, rtt.Seconds())
	c.updateVivaldi(other, rttSeconds)
	c.updateAdjustment(other, rttSeconds)
	c.updateGravity()
	c.storePeer(peer, other)
	return nil
}

// Forget drops the per-peer state for a departed member.
func (c *seedClient) Forget(peer string) {
	delete(c.latencyFilters, peer)
	delete(c.peers, peer)
}

// PeerNames returns the names of every peer with a cached coordinate,
// sorted — the enumeration behind coordinate-table ops surfaces (the
// agent's /coords endpoint).
func (c *seedClient) PeerNames() []string {
	names := make([]string, 0, len(c.peers))
	for name := range c.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PeerCoordinate returns the cached coordinate last heard from the
// peer, or nil when none is known.
func (c *seedClient) PeerCoordinate(peer string) *Coordinate {
	if co, ok := c.peers[peer]; ok {
		return co.Clone()
	}
	return nil
}

// EstimateRTT predicts the round-trip time to the peer from the cached
// coordinates. The second return is false when the peer's coordinate
// is unknown.
func (c *seedClient) EstimateRTT(peer string) (time.Duration, bool) {
	co, ok := c.peers[peer]
	if !ok {
		return 0, false
	}
	return c.coord.DistanceTo(co), true
}

// NearestPeerIndexes appends to out the indexes of up to k candidate
// peers ranked by estimated RTT from the reference point: the cached
// coordinate of the named ref peer, or the node's own coordinate when
// ref is empty (pass a reused out to rank without allocating).
// Candidates with no cached coordinate are skipped (the caller decides
// how to fill the shortfall); an unknown non-empty ref yields out
// unchanged. Ties break by name, and the candidate order does not
// affect the result, so the ranking is deterministic — a requirement
// for same-seed simulation reproducibility.
func (c *seedClient) NearestPeerIndexes(ref string, candidates []string, k int, out []int) []int {
	if k <= 0 {
		return out
	}
	refCoord := c.coord
	if ref != "" {
		co, ok := c.peers[ref]
		if !ok {
			return out
		}
		refCoord = co
	}
	pool := c.ranked[:0]
	for i, name := range candidates {
		co, ok := c.peers[name]
		if !ok {
			continue
		}
		pool = append(pool, rankedPeer{i, name, refCoord.DistanceTo(co)})
	}
	c.ranked = pool[:0]
	// slices.SortFunc, unlike sort.Slice, does not box the slice or the
	// comparator, so ranking is allocation-free. The comparator is a
	// strict total order (names are unique), so any correct sort yields
	// the same permutation — determinism does not depend on stability.
	slices.SortFunc(pool, func(x, y rankedPeer) int {
		if x.rtt != y.rtt {
			if x.rtt < y.rtt {
				return -1
			}
			return 1
		}
		return strings.Compare(x.name, y.name)
	})
	if k > len(pool) {
		k = len(pool)
	}
	for i := 0; i < k; i++ {
		out = append(out, pool[i].idx)
	}
	return out
}

func (c *seedClient) checkCoordinate(coord *Coordinate) error {
	if !c.coord.IsCompatibleWith(coord) {
		return fmt.Errorf("coords: dimensionality mismatch: ours %d, theirs %d", len(c.coord.Vec), len(coord.Vec))
	}
	if !coord.IsValid() {
		return fmt.Errorf("coords: rejected invalid coordinate (NaN/Inf component)")
	}
	return nil
}

// latencyFilter pushes one RTT sample (seconds) into the peer's window
// and returns the window median — the Vivaldi paper's MEDIAN filter,
// which discards one-off latency spikes without the lag of a mean.
func (c *seedClient) latencyFilter(peer string, rttSeconds float64) float64 {
	samples, ok := c.latencyFilters[peer]
	if !ok {
		// The window's one allocation, at its final size.
		samples = make([]float64, 0, c.cfg.LatencyFilterSize)
	}
	if len(samples) == c.cfg.LatencyFilterSize {
		// Full: shift the oldest sample out in place.
		copy(samples, samples[1:])
		samples[len(samples)-1] = rttSeconds
	} else {
		samples = append(samples, rttSeconds)
	}
	c.latencyFilters[peer] = samples

	sorted := append(c.medScratch[:0], samples...)
	c.medScratch = sorted[:0]
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

// updateVivaldi applies the core spring-relaxation step.
func (c *seedClient) updateVivaldi(other *Coordinate, rttSeconds float64) {
	if rttSeconds < zeroThreshold {
		rttSeconds = zeroThreshold
	}
	dist := c.coord.DistanceTo(other).Seconds()
	wrongness := math.Abs(dist-rttSeconds) / rttSeconds

	totalError := c.coord.Error + other.Error
	if totalError < zeroThreshold {
		totalError = zeroThreshold
	}
	weight := c.coord.Error / totalError

	c.coord.Error = math.Min(
		wrongness*c.cfg.VivaldiCE*weight+c.coord.Error*(1.0-c.cfg.VivaldiCE*weight),
		c.cfg.VivaldiErrorMax)

	force := c.cfg.VivaldiCC * weight * (rttSeconds - dist)
	seedApplyForce(c.coord, c.cfg, force, other, c.cfg.Rand, c.unitScratch)
}

// updateAdjustment maintains the additive adjustment term: the average
// over the window of (measured − modelled) raw distances, split evenly
// between the two endpoints of each future prediction.
func (c *seedClient) updateAdjustment(other *Coordinate, rttSeconds float64) {
	if c.cfg.AdjustmentWindowSize <= 0 {
		return
	}
	c.adjustmentSamples[c.adjustmentIndex] = rttSeconds - c.coord.rawDistanceTo(other)
	c.adjustmentIndex = (c.adjustmentIndex + 1) % c.cfg.AdjustmentWindowSize

	sum := 0.0
	for _, s := range c.adjustmentSamples {
		sum += s
	}
	c.coord.Adjustment = sum / (2.0 * float64(c.cfg.AdjustmentWindowSize))
}

// updateGravity pulls the coordinate toward the origin in proportion
// to its distance, countering whole-system drift.
func (c *seedClient) updateGravity() {
	if c.cfg.GravityRho <= 0 {
		return
	}
	dist := c.origin.DistanceTo(c.coord).Seconds()
	force := -1.0 * dist / c.cfg.GravityRho
	seedApplyForce(c.coord, c.cfg, force, c.origin, c.cfg.Rand, c.unitScratch)
}
