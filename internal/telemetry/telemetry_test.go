package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced Now source for recorder tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (bounds are inclusive)
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // overflow
	s := h.Snapshot()
	if want := []uint64{2, 1, 1}; len(s.Counts) != 3 ||
		s.Counts[0] != want[0] || s.Counts[1] != want[1] || s.Counts[2] != want[2] {
		t.Errorf("counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	if want := 500*time.Microsecond + 6*time.Millisecond + time.Second; s.Sum != want {
		t.Errorf("sum = %v, want %v", s.Sum, want)
	}
}

func TestProbeOutcomeString(t *testing.T) {
	cases := map[ProbeOutcome]string{
		OutcomeDirectAck:   "direct_ack",
		OutcomeIndirectAck: "indirect_ack",
		OutcomeTimeout:     "timeout",
		ProbeOutcome(99):   "unknown",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", o, got, want)
		}
	}
}

func TestNodeRecorderSnapshot(t *testing.T) {
	clock := newFakeClock()
	r, err := NewNodeRecorder(NodeConfig{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}

	// Ten RTT samples for peer a across two epochs: 10ms..100ms.
	for i := 1; i <= 10; i++ {
		r.RecordRTT("a", time.Duration(i)*10*time.Millisecond)
		clock.Advance(15 * time.Second) // crosses an epoch every 4 samples
	}
	r.RecordProbe("a", OutcomeDirectAck)
	r.RecordProbe("a", OutcomeDirectAck)
	r.RecordProbe("a", OutcomeIndirectAck)
	r.RecordProbe("a", OutcomeTimeout)
	r.RecordProbe("b", OutcomeTimeout)
	r.RecordSuspicion("b", 3*time.Second, true)
	r.RecordSuspicion("a", time.Second, false)
	r.RecordLHM(1)
	r.RecordLHM(2)
	r.RecordLHM(2) // unchanged, not a change

	s := r.Snapshot()
	if len(s.Peers) != 2 || s.Peers[0].Peer != "a" || s.Peers[1].Peer != "b" {
		t.Fatalf("peers = %+v", s.Peers)
	}
	a := s.Peers[0]
	if a.Samples != 10 {
		t.Errorf("a samples = %d, want 10", a.Samples)
	}
	if a.Epochs < 2 {
		t.Errorf("a epochs = %d, want >= 2", a.Epochs)
	}
	if a.RTTP50Ms < 40 || a.RTTP50Ms > 60 {
		t.Errorf("a p50 = %g ms, want ~50", a.RTTP50Ms)
	}
	if a.RTTP99Ms < 90 {
		t.Errorf("a p99 = %g ms, want >= 90", a.RTTP99Ms)
	}
	if a.DirectAcks != 2 || a.IndirectAcks != 1 || a.Timeouts != 1 {
		t.Errorf("a outcomes = %d/%d/%d", a.DirectAcks, a.IndirectAcks, a.Timeouts)
	}
	if a.LossRate != 0.25 {
		t.Errorf("a loss = %g, want 0.25", a.LossRate)
	}
	if a.Suspicions != 1 || a.Deaths != 0 {
		t.Errorf("a suspicions = %d deaths = %d", a.Suspicions, a.Deaths)
	}
	b := s.Peers[1]
	if b.Timeouts != 1 || b.LossRate != 1 {
		t.Errorf("b timeouts = %d loss = %g", b.Timeouts, b.LossRate)
	}
	if b.Suspicions != 1 || b.Deaths != 1 {
		t.Errorf("b suspicions = %d deaths = %d", b.Suspicions, b.Deaths)
	}
	if s.LHM != 2 || s.LHMChanges != 2 {
		t.Errorf("lhm = %d changes = %d", s.LHM, s.LHMChanges)
	}
	if s.Samples != 10 {
		t.Errorf("samples = %d, want 10", s.Samples)
	}
	if s.RTT.Count != 10 || s.Suspicion.Count != 2 {
		t.Errorf("histogram counts: rtt %d suspicion %d", s.RTT.Count, s.Suspicion.Count)
	}
}

// TestNodeRecorderMemoryBound fills more (peer, epoch) partitions than
// the recorder keeps, each past its ring, and checks occupancy never
// exceeds the fixed bounds (1024 partitions of 128 samples).
func TestNodeRecorderMemoryBound(t *testing.T) {
	clock := newFakeClock()
	r, err := NewNodeRecorder(NodeConfig{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	bound := nodeMaxPartitions * nodeRingSize
	if got := r.Buffer().MaxSamples(); got != bound {
		t.Fatalf("MaxSamples = %d, want %d", got, bound)
	}
	peers := make([]string, nodeMaxPartitions+76)
	for i := range peers {
		peers[i] = fmt.Sprintf("peer-%04d", i)
	}
	for epoch := 0; epoch < 2; epoch++ {
		for i, p := range peers {
			for n := 0; n < nodeRingSize+2; n++ {
				r.RecordRTT(p, time.Millisecond)
			}
			if got := r.Buffer().Len(); got > bound {
				t.Fatalf("epoch %d peer %d: Len = %d exceeds bound %d", epoch, i, got, bound)
			}
			if got := r.Buffer().Partitions(); got > nodeMaxPartitions {
				t.Fatalf("epoch %d peer %d: %d partitions, bound %d", epoch, i, got, nodeMaxPartitions)
			}
		}
		clock.Advance(nodeEpochInterval)
	}
	if r.Buffer().Evictions() == 0 || r.Buffer().Overwrites() == 0 {
		t.Errorf("evictions = %d overwrites = %d, want both non-zero", r.Buffer().Evictions(), r.Buffer().Overwrites())
	}
	s := r.Snapshot()
	if s.Samples > bound || s.Partitions > nodeMaxPartitions {
		t.Errorf("snapshot: %d samples in %d partitions, bounds %d / %d", s.Samples, s.Partitions, bound, nodeMaxPartitions)
	}
}

// TestNodeRecorderPeersBounded is the name-churn test for the peer
// table: ten thousand distinct peer names (every replacement member in
// a long-lived cluster joins under a new one) leave at most 1024
// entries in a snapshot, and those are the most recently recorded
// about.
func TestNodeRecorderPeersBounded(t *testing.T) {
	r, err := NewNodeRecorder(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const names = 10_000
	name := func(i int) string { return fmt.Sprintf("peer-%05d", i) }
	for i := 0; i < names; i++ {
		switch i % 3 {
		case 0:
			r.RecordProbe(name(i), OutcomeTimeout)
		case 1:
			r.RecordSuspicion(name(i), time.Second, true)
		default:
			r.RecordProbe(name(i), OutcomeDirectAck)
			r.RecordRTT(name(i), time.Millisecond)
		}
		// An old peer recorded about again is recent again.
		r.RecordProbe(name(0), OutcomeDirectAck)
	}
	s := r.Snapshot()
	if len(s.Peers) > nodeMaxPartitions {
		t.Fatalf("snapshot lists %d peers, bound %d", len(s.Peers), nodeMaxPartitions)
	}
	listed := make(map[string]PeerSnapshot, len(s.Peers))
	for _, p := range s.Peers {
		listed[p.Peer] = p
	}
	for i := names - (nodeMaxPartitions - 1); i < names; i++ {
		if _, ok := listed[name(i)]; !ok {
			t.Fatalf("recent peer %s was dropped", name(i))
		}
	}
	if p, ok := listed[name(0)]; !ok || p.DirectAcks != names {
		t.Errorf("peer touched every step: listed %t with %d direct acks, want %d", ok, p.DirectAcks, names)
	}
	if _, ok := listed[name(1)]; ok {
		t.Errorf("peer %s, untouched since step 1, survived %d newer names", name(1), names)
	}
}

// TestNodeRecorderConcurrent races every write hook against Snapshot;
// under -race this is the recorder's thread-safety proof.
func TestNodeRecorderConcurrent(t *testing.T) {
	r, err := NewNodeRecorder(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p := peers[(w+i)%len(peers)]
				r.RecordRTT(p, time.Duration(i)*time.Microsecond)
				r.RecordProbe(p, ProbeOutcome(i%3+1))
				r.RecordLHM(i % 8)
				if i%50 == 0 {
					r.RecordSuspicion(p, time.Duration(i)*time.Millisecond, i%2 == 0)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			s := r.Snapshot()
			if len(s.Peers) > len(peers) {
				t.Errorf("snapshot has %d peers", len(s.Peers))
				return
			}
		}
	}()
	wg.Wait()
	s := r.Snapshot()
	if s.RTT.Count != 4000 {
		t.Errorf("rtt count = %d, want 4000", s.RTT.Count)
	}
}

func TestWriteCountersSorted(t *testing.T) {
	var b strings.Builder
	WriteCounters(&b, "lg_", map[string]int64{"zeta": 2, "alpha": 1})
	want := "# TYPE lg_alpha counter\nlg_alpha 1\n# TYPE lg_zeta counter\nlg_zeta 2\n"
	if b.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWriteGauge(t *testing.T) {
	var b strings.Builder
	WriteGauge(&b, "lg_members", 42)
	want := "# TYPE lg_members gauge\nlg_members 42\n"
	if b.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestWriteHistogramExposition pins the Prometheus text format:
// cumulative le-labelled buckets in seconds, the +Inf bucket, and the
// _sum/_count pair.
func TestWriteHistogramExposition(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(time.Second)
	var b strings.Builder
	WriteHistogram(&b, "lg_rtt_seconds", h.Snapshot())
	want := strings.Join([]string{
		"# TYPE lg_rtt_seconds histogram",
		`lg_rtt_seconds_bucket{le="0.001"} 1`,
		`lg_rtt_seconds_bucket{le="0.01"} 2`,
		`lg_rtt_seconds_bucket{le="+Inf"} 3`,
		"lg_rtt_seconds_sum 1.0055",
		"lg_rtt_seconds_count 3",
		"",
	}, "\n")
	if b.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", b.String(), want)
	}
}
