package sim

import (
	"math/rand"
	"time"
)

// Topology is a zone-structured latency model for the simulated
// network, replacing the single global latency distribution for WAN
// and multi-zone experiments. Each member belongs to a named zone;
// packet delays are drawn from the profile of the (source zone,
// destination zone) pair.
//
// Because the model is explicit, the ground-truth expected RTT between
// any two members is known — the reference against which Vivaldi
// coordinate estimates are scored.
//
// A Topology must only be mutated before the simulation starts (or
// from the scheduler's event loop); the Network reads it on every
// packet.
type Topology struct {
	// IntraZone is the profile for traffic within a zone. Defaults to
	// 500µs ± 500µs, a LAN.
	IntraZone DelayDist

	// InterZone is the fallback profile for traffic between two zones
	// that have no explicit pair profile. Defaults to 40ms ± 4ms.
	InterZone DelayDist

	// zones maps member name to zone name. Members without a zone use
	// DefaultZone.
	zones map[string]string

	// pairs maps an unordered zone pair to its profile.
	pairs map[[2]string]DelayDist
}

// DefaultZone is the zone of members never assigned one.
const DefaultZone = "default"

// NewTopology returns an empty topology with LAN/WAN default profiles.
func NewTopology() *Topology {
	return &Topology{
		IntraZone: DelayDist{Base: 500 * time.Microsecond, Jitter: 500 * time.Microsecond},
		InterZone: DelayDist{Base: 40 * time.Millisecond, Jitter: 4 * time.Millisecond},
		zones:     make(map[string]string),
		pairs:     make(map[[2]string]DelayDist),
	}
}

// SetZone assigns a member to a zone.
func (t *Topology) SetZone(member, zone string) {
	t.zones[member] = zone
}

// Zone returns the member's zone (DefaultZone if unassigned).
func (t *Topology) Zone(member string) string {
	if z, ok := t.zones[member]; ok {
		return z
	}
	return DefaultZone
}

// SetZonePair sets the symmetric profile for traffic between two zones
// (or within one, when a == b).
func (t *Topology) SetZonePair(a, b string, d DelayDist) {
	t.pairs[zoneKey(a, b)] = d
}

func zoneKey(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// profileFor resolves the delay profile for one member pair: the
// zone-pair profile, else the intra/inter default.
func (t *Topology) profileFor(from, to string) DelayDist {
	za, zb := t.Zone(from), t.Zone(to)
	if p, ok := t.pairs[zoneKey(za, zb)]; ok {
		return p
	}
	if za == zb {
		return t.IntraZone
	}
	return t.InterZone
}

// Sample draws a one-way delay for a packet from one member to
// another.
func (t *Topology) Sample(from, to string, rng *rand.Rand) time.Duration {
	return t.profileFor(from, to).sample(rng)
}

// GroundTruthRTT returns the expected round-trip time between two
// members under this model: twice the mean one-way delay of their zone
// pair. This is the reference RTT for scoring coordinate estimates.
func (t *Topology) GroundTruthRTT(a, b string) time.Duration {
	return 2 * t.profileFor(a, b).expected()
}
