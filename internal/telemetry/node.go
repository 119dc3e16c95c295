package telemetry

import (
	"sort"
	"sync"
	"time"

	"lifeguard/internal/stats"
)

// NodeConfig parameterizes a NodeRecorder. It has no fields — the
// recorder's sizes are constants — and stays so that the callers that
// construct one (the agent, the lifeguard facade's NodeTelemetryConfig,
// the benchmark) keep a stable signature.
type NodeConfig struct{}

// A NodeRecorder's sizes: one value each, because nothing runs with
// another. Together they are its hard memory bound: 1024 peers × 128
// RTTs × 8 B = 1 MiB of samples.
const (
	// nodeRingSize bounds one peer's RTT ring: its latest 128 RTTs.
	nodeRingSize = 128

	// nodeMaxPeers bounds the peer table.
	nodeMaxPeers = 1024
)

// peerEntry is everything a NodeRecorder keeps about one peer: its
// probe outcome counters and a ring of its latest RTTs. touched is the
// recorder's touch count when the peer was last recorded about; the
// entry with the lowest value goes when the table is full.
type peerEntry struct {
	touched      uint64
	directAcks   uint64
	indirectAcks uint64
	timeouts     uint64
	suspicions   uint64
	deaths       uint64

	// rtts grows to nodeRingSize; from then on next is the slot the
	// following RTT overwrites, the oldest one.
	rtts []time.Duration
	next int
}

// NodeRecorder implements Recorder for one live node: one entry per
// peer, holding the peer's probe outcome counters and its latest RTTs,
// in a table of at most 1024 peers however many names come and go; plus
// RTT and suspicion-duration histograms and the LHM gauge. It backs the
// agent's /telemetry and /metrics endpoints.
//
// NodeRecorder is safe for concurrent use: one lock guards all of it,
// because the node records under its protocol lock while the agent's
// HTTP scraper reads.
type NodeRecorder struct {
	mu         sync.Mutex
	peers      map[string]*peerEntry
	rtt        histogram
	suspicion  histogram
	touches    uint64
	evictions  uint64
	overwrites uint64
	lhm        int
	lhmChanges uint64
}

var _ Recorder = (*NodeRecorder)(nil)

// NewNodeRecorder returns an empty recorder. The error is always nil;
// the signature is the one its callers were written against.
func NewNodeRecorder(NodeConfig) (*NodeRecorder, error) {
	return &NodeRecorder{
		peers:     make(map[string]*peerEntry),
		rtt:       newHistogram(rttBuckets),
		suspicion: newHistogram(suspicionBuckets),
	}, nil
}

// peerLocked returns peer's entry, marked as the most recently touched.
// A new peer arriving at a full table replaces the least recently
// touched one, its RTTs with it (touch counts are unique, so there are
// no ties to break). Called with r.mu held.
func (r *NodeRecorder) peerLocked(peer string) *peerEntry {
	e := r.peers[peer]
	if e == nil {
		if len(r.peers) >= nodeMaxPeers {
			var victim string
			oldest := r.touches + 1
			for name, pe := range r.peers {
				if pe.touched < oldest {
					victim, oldest = name, pe.touched
				}
			}
			delete(r.peers, victim)
			r.evictions++
		}
		e = &peerEntry{}
		r.peers[peer] = e
	}
	r.touches++
	e.touched = r.touches
	return e
}

// RecordRTT implements Recorder.
func (r *NodeRecorder) RecordRTT(peer string, rtt time.Duration) {
	r.mu.Lock()
	r.rtt.observe(rtt)
	e := r.peerLocked(peer)
	if len(e.rtts) < nodeRingSize {
		e.rtts = append(e.rtts, rtt)
	} else {
		e.rtts[e.next] = rtt
		e.next = (e.next + 1) % nodeRingSize
		r.overwrites++
	}
	r.mu.Unlock()
}

// RecordProbe implements Recorder.
func (r *NodeRecorder) RecordProbe(peer string, outcome ProbeOutcome) {
	r.mu.Lock()
	e := r.peerLocked(peer)
	switch outcome {
	case OutcomeDirectAck:
		e.directAcks++
	case OutcomeIndirectAck:
		e.indirectAcks++
	case OutcomeTimeout:
		e.timeouts++
	}
	r.mu.Unlock()
}

// RecordLHM implements Recorder.
func (r *NodeRecorder) RecordLHM(score int) {
	r.mu.Lock()
	if score != r.lhm {
		r.lhmChanges++
	}
	r.lhm = score
	r.mu.Unlock()
}

// RecordSuspicion implements Recorder.
func (r *NodeRecorder) RecordSuspicion(peer string, d time.Duration, died bool) {
	r.mu.Lock()
	r.suspicion.observe(d)
	e := r.peerLocked(peer)
	e.suspicions++
	if died {
		e.deaths++
	}
	r.mu.Unlock()
}

// PeerSnapshot is one peer's slice of a telemetry snapshot.
type PeerSnapshot struct {
	// Peer is the peer member's name.
	Peer string `json:"peer"`

	// Samples is the number of RTTs held for the peer: its latest, at
	// most 128.
	Samples int `json:"samples"`

	// RTTP50Ms, RTTP90Ms and RTTP99Ms are RTT percentiles over the held
	// RTTs (linear interpolation between closest ranks), in
	// milliseconds (0 with no samples).
	RTTP50Ms float64 `json:"rtt_p50_ms"`
	RTTP90Ms float64 `json:"rtt_p90_ms"`
	RTTP99Ms float64 `json:"rtt_p99_ms"`

	// DirectAcks, IndirectAcks and Timeouts count the peer's probe
	// round outcomes.
	DirectAcks   uint64 `json:"direct_acks"`
	IndirectAcks uint64 `json:"indirect_acks"`
	Timeouts     uint64 `json:"timeouts"`

	// LossRate is Timeouts over all rounds, in [0, 1] (0 with no
	// rounds).
	LossRate float64 `json:"loss_rate"`

	// Suspicions and Deaths count suspicion lifecycles observed about
	// the peer and how many ended in death.
	Suspicions uint64 `json:"suspicions"`
	Deaths     uint64 `json:"deaths"`
}

// Snapshot is a point-in-time copy of a NodeRecorder.
type Snapshot struct {
	// Peers has one entry per peer in the recorder's peer table — at
	// most 1024, the most recently recorded about — sorted by name.
	Peers []PeerSnapshot `json:"peers"`

	// RTT and Suspicion are the recorder's histograms.
	RTT       HistogramSnapshot `json:"rtt"`
	Suspicion HistogramSnapshot `json:"suspicion"`

	// LHM is the current Local Health Multiplier score; LHMChanges
	// counts observed score changes.
	LHM        int    `json:"lhm"`
	LHMChanges uint64 `json:"lhm_changes"`

	// Samples is the number of RTTs held, the sum over Peers. Evictions
	// counts peers dropped from the full table, and Overwrites RTTs
	// overwritten in full rings.
	Samples    int    `json:"samples"`
	Evictions  uint64 `json:"evictions"`
	Overwrites uint64 `json:"overwrites"`
}

// Snapshot copies the recorder's current state, all from one instant:
// per-peer RTT percentiles and loss, the histograms, and the table's
// occupancy. Safe to call while recording continues.
func (r *NodeRecorder) Snapshot() Snapshot {
	r.mu.Lock()
	snap := Snapshot{
		Peers:      make([]PeerSnapshot, 0, len(r.peers)),
		RTT:        r.rtt.snapshot(),
		Suspicion:  r.suspicion.snapshot(),
		LHM:        r.lhm,
		LHMChanges: r.lhmChanges,
		Evictions:  r.evictions,
		Overwrites: r.overwrites,
	}
	rtts := make([][]float64, 0, len(r.peers)) // milliseconds, per peer
	for name, e := range r.peers {
		ms := make([]float64, len(e.rtts))
		for i, rtt := range e.rtts {
			ms[i] = float64(rtt) / float64(time.Millisecond)
		}
		rtts = append(rtts, ms)
		snap.Peers = append(snap.Peers, PeerSnapshot{
			Peer:         name,
			Samples:      len(ms),
			DirectAcks:   e.directAcks,
			IndirectAcks: e.indirectAcks,
			Timeouts:     e.timeouts,
			Suspicions:   e.suspicions,
			Deaths:       e.deaths,
		})
	}
	r.mu.Unlock()

	for i := range snap.Peers {
		ps := &snap.Peers[i]
		ps.RTTP50Ms = stats.Percentile(rtts[i], 50)
		ps.RTTP90Ms = stats.Percentile(rtts[i], 90)
		ps.RTTP99Ms = stats.Percentile(rtts[i], 99)
		if rounds := ps.DirectAcks + ps.IndirectAcks + ps.Timeouts; rounds > 0 {
			ps.LossRate = float64(ps.Timeouts) / float64(rounds)
		}
		snap.Samples += ps.Samples
	}
	sort.Slice(snap.Peers, func(i, j int) bool { return snap.Peers[i].Peer < snap.Peers[j].Peer })
	return snap
}
