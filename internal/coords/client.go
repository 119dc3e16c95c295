package coords

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// The Vivaldi paper's evaluated constants, as Serf tunes them. Nothing
// sets a second value for any of them, so they are constants rather than
// Config fields (docs/ARCHITECTURE.md, Contracts).
const (
	// dimensionality is the Euclidean dimension of the coordinate
	// space. The Vivaldi paper finds low dimensions plus a height
	// outperform high-dimensional embeddings.
	dimensionality = 8

	// vivaldiErrorMax caps (and initializes) a coordinate's error
	// estimate.
	vivaldiErrorMax = 1.5

	// vivaldiCE is c_e, the maximum fraction of the error estimate
	// replaced by one observation.
	vivaldiCE = 0.25

	// vivaldiCC is c_c, the maximum fraction of the distance to the
	// peer travelled in one update (the adaptive timestep ceiling).
	vivaldiCC = 0.25

	// adjustmentWindowSize is the number of recent samples over which
	// the additive adjustment term is averaged.
	adjustmentWindowSize = 20

	// heightMin is the floor of the height component, in seconds.
	heightMin = 10.0e-6

	// latencyFilterSize is the per-peer median filter window: an RTT
	// observation only reaches the Vivaldi update as the median of the
	// last latencyFilterSize samples from that peer, suppressing
	// one-off outliers (queueing spikes, retransmits).
	latencyFilterSize = 3

	// gravityRho tunes the gravity force that pulls coordinates toward
	// the origin, preventing the coordinate system from drifting away
	// as a whole: the pull is proportional to distance/gravityRho.
	gravityRho = 150.0

	// maxRTT bounds accepted RTT observations; larger samples are
	// discarded as outliers (a 10-second "round trip" is a stalled
	// process, not a network path).
	maxRTT = 10 * time.Second
)

// Config holds what differs between engines: their source of
// randomness. The tuning is the constants above.
type Config struct {
	// Rand supplies the engine's randomness (tie-breaking coincident
	// coordinates). Defaults to a fixed-seed xorshift generator;
	// inject the node's seeded RNG for simulation determinism.
	Rand func() float64
}

// DefaultConfig returns a Config with no Rand, so NewClient falls back
// to its fixed-seed generator. It stays for the callers written against
// it, the benchmark module's kernels among them.
func DefaultConfig() *Config {
	return &Config{}
}

// Client is one node's Vivaldi engine. It is not safe for concurrent
// use; the protocol core serializes access under the node lock.
type Client struct {
	rand  func() float64
	coord *Coordinate

	// origin is a zero-value coordinate used as the gravity anchor.
	origin *Coordinate

	// adjustmentSamples is the circular raw-error window feeding the
	// adjustment term.
	adjustmentSamples [adjustmentWindowSize]float64
	adjustmentIndex   int

	// peers holds one record per peer this node has a coordinate for
	// (from pings received and acks observed): the cached coordinate,
	// the basis for EstimateRTT to members this node has not probed
	// itself, and the peer's RTT sample window. A record exists exactly
	// while a coordinate is cached — Witness and Observe create it, only
	// Forget drops it — so every peer-facing query sees one set.
	peers map[string]*peer

	// ranked is reusable scratch for NearestPeerIndexes, so a
	// repeated ranking does not allocate.
	ranked []rankedPeer

	// medScratch is reusable scratch for the latency median filter.
	medScratch []float64

	// unitScratch is reusable scratch for applyForce's unit vector, so
	// the two spring steps per observation do not allocate.
	unitScratch []float64
}

// peer is the engine's state for one peer. Its coordinate vector and
// its RTT window share one float array of dimensionality +
// latencyFilterSize elements, so a new peer costs two allocations (this
// record and the array) and a known peer's observation none. A peer
// only ever witnessed carries a window it never fills; that is
// latencyFilterSize floats, against the map entry and the allocation a
// separate window map would cost the peers that are observed.
type peer struct {
	coord Coordinate

	// window holds the peer's most recent RTT samples, in seconds,
	// oldest first; its capacity is latencyFilterSize.
	window []float64
}

// rankedPeer is one candidate in a NearestPeerIndexes ranking.
type rankedPeer struct {
	idx  int
	name string
	rtt  time.Duration
}

// NewClient returns an engine at the origin, drawing its randomness
// from cfg.Rand (nil cfg or Rand: a fixed-seed generator). The error is
// always nil; the signature is the one its callers were written
// against, the benchmark module's kernels among them.
func NewClient(cfg *Config) (*Client, error) {
	var rnd func() float64
	if cfg != nil {
		rnd = cfg.Rand
	}
	if rnd == nil {
		rng := uint64(0x9E3779B97F4A7C15)
		rnd = func() float64 {
			// xorshift64*: deterministic fallback randomness; only used
			// to separate exactly-coincident coordinates.
			rng ^= rng >> 12
			rng ^= rng << 25
			rng ^= rng >> 27
			return float64(rng*0x2545F4914F6CDD1D>>11) / float64(1<<53)
		}
	}
	return &Client{
		rand:        rnd,
		coord:       NewCoordinate(nil),
		origin:      NewCoordinate(nil),
		peers:       make(map[string]*peer),
		unitScratch: make([]float64, dimensionality),
	}, nil
}

// Coordinate returns a copy of the node's current coordinate.
func (c *Client) Coordinate() *Coordinate {
	return c.coord.Clone()
}

// Current returns the live coordinate without copying, for callers
// that serialize it immediately under the same lock that guards
// Update (the protocol core's send path encodes synchronously, so a
// per-packet clone would be waste). The returned value must be
// treated as read-only and not retained across engine updates.
func (c *Client) Current() *Coordinate {
	return c.coord
}

// Witness caches a peer's coordinate without an RTT observation (the
// receive side of a ping, which knows the sender's coordinate but not
// the path RTT). Invalid coordinates are discarded; the return
// reports whether the coordinate was cached.
func (c *Client) Witness(name string, coord *Coordinate) bool {
	if coord == nil || c.checkCoordinate(coord) != nil {
		return false
	}
	c.peer(name).store(coord)
	return true
}

// peer returns the named peer's record, creating an empty one. Callers
// validate their input first, so a record is only created for a peer
// whose coordinate is about to be stored.
func (c *Client) peer(name string) *peer {
	if p, ok := c.peers[name]; ok {
		return p
	}
	floats := make([]float64, dimensionality+latencyFilterSize)
	p := &peer{
		coord:  Coordinate{Vec: floats[:dimensionality:dimensionality]},
		window: floats[dimensionality:dimensionality],
	}
	c.peers[name] = p
	return p
}

// store copies a validated coordinate into the record, so steady-state
// traffic does not allocate a Coordinate per observation.
func (p *peer) store(coord *Coordinate) {
	copy(p.coord.Vec, coord.Vec)
	p.coord.Error = coord.Error
	p.coord.Adjustment = coord.Adjustment
	p.coord.Height = coord.Height
}

// Observe incorporates one probe observation: the peer's coordinate and
// the measured round-trip time. Invalid inputs (malformed coordinate,
// non-positive or absurd RTT) are rejected without mutating state.
func (c *Client) Observe(name string, other *Coordinate, rtt time.Duration) error {
	if other == nil {
		return fmt.Errorf("coords: nil peer coordinate")
	}
	if err := c.checkCoordinate(other); err != nil {
		return err
	}
	if rtt <= 0 || rtt > maxRTT {
		return fmt.Errorf("coords: RTT %v outside acceptable range (0, %v]", rtt, maxRTT)
	}

	p := c.peer(name)
	rttSeconds := c.latencyFilter(p, rtt.Seconds())
	c.updateVivaldi(other, rttSeconds)
	c.updateAdjustment(other, rttSeconds)
	c.updateGravity()
	p.store(other)
	return nil
}

// Update is Observe returning a copy of the node's updated coordinate,
// for callers that want the result in hand; the protocol core, which
// reads the live coordinate under its own lock, calls Observe.
func (c *Client) Update(name string, other *Coordinate, rtt time.Duration) (*Coordinate, error) {
	if err := c.Observe(name, other, rtt); err != nil {
		return nil, err
	}
	return c.coord.Clone(), nil
}

// Forget drops the per-peer state for a departed member.
func (c *Client) Forget(name string) {
	delete(c.peers, name)
}

// PeerNames returns the names of every peer with a cached coordinate,
// sorted — the enumeration behind coordinate-table ops surfaces (the
// agent's /coords endpoint).
func (c *Client) PeerNames() []string {
	names := make([]string, 0, len(c.peers))
	for name := range c.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PeerCoordinate returns the cached coordinate last heard from the
// peer, or nil when none is known.
func (c *Client) PeerCoordinate(name string) *Coordinate {
	if p, ok := c.peers[name]; ok {
		return p.coord.Clone()
	}
	return nil
}

// EstimateRTT predicts the round-trip time to the peer from the cached
// coordinates. The second return is false when the peer's coordinate
// is unknown.
func (c *Client) EstimateRTT(name string) (time.Duration, bool) {
	p, ok := c.peers[name]
	if !ok {
		return 0, false
	}
	return c.coord.DistanceTo(&p.coord), true
}

// NearestPeerIndexes appends to out the indexes of up to k candidate
// peers ranked by estimated RTT from the reference point: the cached
// coordinate of the named ref peer, or the node's own coordinate when
// ref is empty (pass a reused out to rank without allocating).
// Candidates with no cached coordinate are skipped (the caller decides
// how to fill the shortfall); an unknown non-empty ref yields out
// unchanged. Ties break by name, and the candidate order does not
// affect the result, so the ranking is deterministic. No protocol path
// ranks peers; the method stays for the callers written against it,
// the benchmark module's kernels among them.
func (c *Client) NearestPeerIndexes(ref string, candidates []string, k int, out []int) []int {
	if k <= 0 {
		return out
	}
	refCoord := c.coord
	if ref != "" {
		p, ok := c.peers[ref]
		if !ok {
			return out
		}
		refCoord = &p.coord
	}
	pool := c.ranked[:0]
	for i, name := range candidates {
		p, ok := c.peers[name]
		if !ok {
			continue
		}
		pool = append(pool, rankedPeer{i, name, refCoord.DistanceTo(&p.coord)})
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

func (c *Client) checkCoordinate(coord *Coordinate) error {
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
func (c *Client) latencyFilter(p *peer, rttSeconds float64) float64 {
	if len(p.window) == cap(p.window) {
		// Full: shift the oldest sample out in place.
		copy(p.window, p.window[1:])
		p.window[len(p.window)-1] = rttSeconds
	} else {
		p.window = append(p.window, rttSeconds)
	}

	// An insertion sort: the window is a few samples, and the median is
	// the same value any sort would pick.
	sorted := append(c.medScratch[:0], p.window...)
	c.medScratch = sorted[:0]
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}

// updateVivaldi applies the core spring-relaxation step.
func (c *Client) updateVivaldi(other *Coordinate, rttSeconds float64) {
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
		wrongness*vivaldiCE*weight+c.coord.Error*(1.0-vivaldiCE*weight),
		vivaldiErrorMax)

	force := vivaldiCC * weight * (rttSeconds - dist)
	c.coord.applyForce(force, other, c.rand, c.unitScratch)
}

// updateAdjustment maintains the additive adjustment term: the average
// over the window of (measured − modelled) raw distances, split evenly
// between the two endpoints of each future prediction.
func (c *Client) updateAdjustment(other *Coordinate, rttSeconds float64) {
	c.adjustmentSamples[c.adjustmentIndex] = rttSeconds - c.coord.rawDistanceTo(other)
	c.adjustmentIndex = (c.adjustmentIndex + 1) % adjustmentWindowSize

	sum := 0.0
	for _, s := range c.adjustmentSamples {
		sum += s
	}
	c.coord.Adjustment = sum / (2.0 * adjustmentWindowSize)
}

// updateGravity pulls the coordinate toward the origin in proportion
// to its distance, countering whole-system drift.
func (c *Client) updateGravity() {
	dist := c.origin.DistanceTo(c.coord).Seconds()
	force := -1.0 * dist / gravityRho
	c.coord.applyForce(force, c.origin, c.rand, c.unitScratch)
}
