package telemetry

import (
	"sort"
	"sync"
	"time"
)

// NodeConfig parameterizes a NodeRecorder. The zero value is what the
// agent runs with.
type NodeConfig struct {
	// Now supplies timestamps; defaults to time.Now. Simulated nodes
	// inject their virtual clock.
	Now func() time.Time
}

// A NodeRecorder's sizes: one value each, because nothing runs with
// another.
const (
	// nodeEpochInterval is the width of one sample epoch: per-peer RTT
	// samples are partitioned by (peer, epoch), and when the partition
	// bound is hit the oldest epoch is evicted first.
	nodeEpochInterval = time.Minute

	// nodeRingSize bounds one (peer, epoch) partition's ring.
	nodeRingSize = 128

	// nodeMaxPartitions bounds the live (peer, epoch) partitions and,
	// separately, the peers with live outcome counters.
	nodeMaxPartitions = 1024
)

// PeerEpoch keys one peer's RTT samples within one epoch.
type PeerEpoch struct {
	// Peer is the peer member's name.
	Peer string

	// Epoch is the sample epoch number (minutes since the recorder
	// started).
	Epoch uint64
}

// peerCounters accumulates one peer's probe outcomes. touched is the
// recorder's touch count when the peer was last recorded about; the
// entry with the lowest value goes when the peer table is full.
type peerCounters struct {
	touched      uint64
	directAcks   uint64
	indirectAcks uint64
	timeouts     uint64
	suspicions   uint64
	deaths       uint64
}

// NodeRecorder implements Recorder for one live node: per-(peer, epoch)
// RTT sample partitions and per-peer probe outcome counters, both with
// a hard memory bound however many peer names come and go, and
// process-wide RTT/suspicion histograms plus the LHM gauge. It backs
// the agent's /telemetry and /metrics endpoints.
//
// NodeRecorder is safe for concurrent use.
type NodeRecorder struct {
	cfg    NodeConfig
	epoch0 time.Time
	buf    *Buffer[PeerEpoch, time.Duration]

	// RTTHist and SuspicionHist are the process-wide histograms, exposed
	// for Prometheus exposition.
	RTTHist       *Histogram
	SuspicionHist *Histogram

	mu         sync.Mutex
	peers      map[string]*peerCounters
	touches    uint64
	lhm        int
	lhmChanges uint64
}

var _ Recorder = (*NodeRecorder)(nil)

// NewNodeRecorder returns an empty recorder.
func NewNodeRecorder(cfg NodeConfig) (*NodeRecorder, error) {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	buf, err := NewBuffer[PeerEpoch, time.Duration](BufferConfig[PeerEpoch]{
		MaxSamplesPerPartition: nodeRingSize,
		MaxPartitions:          nodeMaxPartitions,
		Epoch:                  func(k PeerEpoch) uint64 { return k.Epoch },
		Less:                   func(a, b PeerEpoch) bool { return a.Peer < b.Peer },
	})
	if err != nil {
		return nil, err
	}
	return &NodeRecorder{
		cfg:           cfg,
		epoch0:        cfg.Now(),
		buf:           buf,
		RTTHist:       NewHistogram(rttBuckets),
		SuspicionHist: NewHistogram(suspicionBuckets),
		peers:         make(map[string]*peerCounters),
	}, nil
}

// epochAt returns the epoch number for a timestamp.
func (r *NodeRecorder) epochAt(t time.Time) uint64 {
	d := t.Sub(r.epoch0)
	if d < 0 {
		return 0
	}
	return uint64(d / nodeEpochInterval)
}

// peerLocked returns peer's counters, marked as the most recently
// touched. A new peer arriving at a full table replaces the least
// recently touched one (touch counts are unique, so there are no ties
// to break). Called with r.mu held.
func (r *NodeRecorder) peerLocked(peer string) *peerCounters {
	c := r.peers[peer]
	if c == nil {
		if len(r.peers) >= nodeMaxPartitions {
			var victim string
			oldest := r.touches + 1
			for name, pc := range r.peers {
				if pc.touched < oldest {
					victim, oldest = name, pc.touched
				}
			}
			delete(r.peers, victim)
		}
		c = &peerCounters{}
		r.peers[peer] = c
	}
	r.touches++
	c.touched = r.touches
	return c
}

// Buffer exposes the underlying sample buffer (bounds, eviction
// counters) for tests and ops surfaces.
func (r *NodeRecorder) Buffer() *Buffer[PeerEpoch, time.Duration] { return r.buf }

// RecordRTT implements Recorder.
func (r *NodeRecorder) RecordRTT(peer string, rtt time.Duration) {
	r.buf.Add(PeerEpoch{Peer: peer, Epoch: r.epochAt(r.cfg.Now())}, rtt)
	r.RTTHist.Observe(rtt)
	r.mu.Lock()
	r.peerLocked(peer)
	r.mu.Unlock()
}

// RecordProbe implements Recorder.
func (r *NodeRecorder) RecordProbe(peer string, outcome ProbeOutcome) {
	r.mu.Lock()
	c := r.peerLocked(peer)
	switch outcome {
	case OutcomeDirectAck:
		c.directAcks++
	case OutcomeIndirectAck:
		c.indirectAcks++
	case OutcomeTimeout:
		c.timeouts++
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
	r.SuspicionHist.Observe(d)
	r.mu.Lock()
	c := r.peerLocked(peer)
	c.suspicions++
	if died {
		c.deaths++
	}
	r.mu.Unlock()
}

// PeerSnapshot is one peer's slice of a telemetry snapshot.
type PeerSnapshot struct {
	// Peer is the peer member's name.
	Peer string `json:"peer"`

	// Samples is the number of buffered RTT samples for the peer.
	Samples int `json:"samples"`

	// Epochs is the number of live sample epochs for the peer.
	Epochs int `json:"epochs"`

	// RTTP50Ms, RTTP90Ms and RTTP99Ms are RTT quantiles over the
	// buffered samples, in milliseconds (0 with no samples).
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

	// RTT and Suspicion are the process-wide histograms.
	RTT       HistogramSnapshot `json:"rtt"`
	Suspicion HistogramSnapshot `json:"suspicion"`

	// LHM is the current Local Health Multiplier score; LHMChanges
	// counts observed score changes.
	LHM        int    `json:"lhm"`
	LHMChanges uint64 `json:"lhm_changes"`

	// Samples, Partitions, Evictions and Overwrites describe the
	// sample buffer's occupancy against its memory bound.
	Samples    int    `json:"samples"`
	Partitions int    `json:"partitions"`
	Evictions  uint64 `json:"evictions"`
	Overwrites uint64 `json:"overwrites"`
}

// Snapshot copies the recorder's current state: per-peer RTT quantiles
// and loss, the histograms, and buffer occupancy. Safe to call while
// recording continues.
func (r *NodeRecorder) Snapshot() Snapshot {
	type peerAgg struct {
		rtts   []float64 // milliseconds
		epochs int
	}
	agg := make(map[string]*peerAgg)
	samples := 0
	r.buf.ForEach(func(k PeerEpoch, rtts []time.Duration) {
		a := agg[k.Peer]
		if a == nil {
			a = &peerAgg{}
			agg[k.Peer] = a
		}
		a.epochs++
		for _, rtt := range rtts {
			a.rtts = append(a.rtts, float64(rtt)/float64(time.Millisecond))
		}
		samples += len(rtts)
	})

	r.mu.Lock()
	peers := make(map[string]peerCounters, len(r.peers))
	for name, c := range r.peers {
		peers[name] = *c
	}
	lhm, lhmChanges := r.lhm, r.lhmChanges
	r.mu.Unlock()

	snap := Snapshot{
		RTT:        r.RTTHist.Snapshot(),
		Suspicion:  r.SuspicionHist.Snapshot(),
		LHM:        lhm,
		LHMChanges: lhmChanges,
		Samples:    samples,
		Partitions: r.buf.Partitions(),
		Evictions:  r.buf.Evictions(),
		Overwrites: r.buf.Overwrites(),
	}
	for name, c := range peers {
		ps := PeerSnapshot{Peer: name}
		if a := agg[name]; a != nil {
			sort.Float64s(a.rtts)
			ps.Samples = len(a.rtts)
			ps.Epochs = a.epochs
			ps.RTTP50Ms = quantile(a.rtts, 0.50)
			ps.RTTP90Ms = quantile(a.rtts, 0.90)
			ps.RTTP99Ms = quantile(a.rtts, 0.99)
		}
		ps.DirectAcks = c.directAcks
		ps.IndirectAcks = c.indirectAcks
		ps.Timeouts = c.timeouts
		ps.Suspicions = c.suspicions
		ps.Deaths = c.deaths
		if rounds := c.directAcks + c.indirectAcks + c.timeouts; rounds > 0 {
			ps.LossRate = float64(c.timeouts) / float64(rounds)
		}
		snap.Peers = append(snap.Peers, ps)
	}
	sort.Slice(snap.Peers, func(i, j int) bool { return snap.Peers[i].Peer < snap.Peers[j].Peer })
	return snap
}

// quantile returns the q-quantile of ascending-sorted vs by
// nearest-rank, or 0 when empty.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	i := int(q * float64(len(vs)-1))
	return vs[i]
}
