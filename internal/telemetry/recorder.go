// Package telemetry is the live observability subsystem: the Recorder
// interface the protocol core reports through (direct-ack RTTs, probe
// outcomes, LHM score changes, suspicion lifecycle durations), and
// NodeRecorder, the recorder a live agent runs.
//
// The protocol core consumes it through the Recorder interface behind
// core's Config.Telemetry, which is nil by default: with no recorder
// installed the hooks are single nil checks, the probe hot path stays
// allocation-free, and — because recording never draws from a node's
// RNG or schedules clock events — enabling a recorder cannot perturb a
// simulation's event ordering or its same-seed byte-identical records.
//
// NodeRecorder keeps one entry per peer — its probe outcome counters
// and a ring of its latest RTTs — in a table with a hard memory bound,
// plus two fixed-bucket histograms, exported over cmd/lifeguard-agent's
// HTTP ops surface.
package telemetry

import "time"

// ProbeOutcome classifies how one probe round against a peer ended.
type ProbeOutcome uint8

// Probe outcomes recorded by the protocol core.
const (
	// OutcomeDirectAck is a round answered by the target on the direct
	// path before escalation.
	OutcomeDirectAck ProbeOutcome = iota + 1

	// OutcomeIndirectAck is a round answered only after escalation to
	// indirect probes or the TCP fallback.
	OutcomeIndirectAck

	// OutcomeTimeout is a round that closed with no ack at all — the
	// probe failure that feeds the per-peer loss rate.
	OutcomeTimeout
)

// String returns a short name for the outcome.
func (o ProbeOutcome) String() string {
	switch o {
	case OutcomeDirectAck:
		return "direct_ack"
	case OutcomeIndirectAck:
		return "indirect_ack"
	case OutcomeTimeout:
		return "timeout"
	default:
		return "unknown"
	}
}

// Recorder receives protocol observations from one node. Install one
// through core's Config.Telemetry; nil (the default) disables recording
// at zero cost. Implementations must be safe for concurrent use and
// must not block: every hook runs under the node's protocol lock.
//
// The determinism contract: implementations must not draw from the
// node's RNG, schedule timers, or send packets — recording is strictly
// write-only bookkeeping, so enabling it cannot perturb a simulation's
// event ordering.
type Recorder interface {
	// RecordRTT reports one measured direct-path round-trip to a peer.
	RecordRTT(peer string, rtt time.Duration)

	// RecordProbe reports the outcome of one probe round this node
	// originated against peer.
	RecordProbe(peer string, outcome ProbeOutcome)

	// RecordLHM reports the Local Health Multiplier's new score after a
	// change (probe success/failure, missed nack, refute).
	RecordLHM(score int)

	// RecordSuspicion reports one completed suspicion lifecycle
	// observed at this node: how long peer stayed suspected before the
	// suspicion resolved, and whether it resolved in death (true) or
	// refutation (false).
	RecordSuspicion(peer string, d time.Duration, died bool)
}

// rttBuckets are a NodeRecorder's histogram bounds for RTT
// observations: sub-millisecond LAN through multi-second outliers.
var rttBuckets = []time.Duration{
	500 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2500 * time.Millisecond,
}

// suspicionBuckets are a NodeRecorder's histogram bounds for suspicion
// lifecycle durations: sub-second refutations through multi-minute
// timeouts.
var suspicionBuckets = []time.Duration{
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2 * time.Second,
	5 * time.Second,
	10 * time.Second,
	30 * time.Second,
	time.Minute,
	2 * time.Minute,
	5 * time.Minute,
}

// histogram is a fixed-bucket duration histogram over ascending bucket
// upper bounds plus an overflow bucket. It is not safe for concurrent
// use: a NodeRecorder keeps its two under its own lock.
type histogram struct {
	bounds []time.Duration
	counts []uint64
	sum    time.Duration
}

// newHistogram returns an empty histogram over bounds.
func newHistogram(bounds []time.Duration) histogram {
	return histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += d
}

// HistogramSnapshot is a point-in-time copy of a histogram, in
// Prometheus shape: Counts[i] holds observations ≤ Bounds[i] (the last
// entry is the overflow bucket) and the counts are per-bucket, not
// cumulative.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds (JSON: nanoseconds).
	Bounds []time.Duration `json:"bounds_ns"`

	// Counts has one entry per bound plus the overflow bucket.
	Counts []uint64 `json:"counts"`

	// Count is the total number of observations: the sum of Counts.
	Count uint64 `json:"count"`

	// Sum is the sum of all observed durations (JSON: nanoseconds).
	Sum time.Duration `json:"sum_ns"`
}

// snapshot copies the histogram's current state.
func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]time.Duration(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
	}
	for _, c := range h.counts {
		s.Count += c
	}
	return s
}
