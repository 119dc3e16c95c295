package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

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
	r, err := NewNodeRecorder(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Ten RTT samples for peer a: 10ms..100ms.
	for i := 1; i <= 10; i++ {
		r.RecordRTT("a", time.Duration(i)*10*time.Millisecond)
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
	// Linear interpolation between closest ranks, the rule every record
	// uses: rank p/100·(n−1) over 10..100 ms.
	for _, q := range []struct {
		name      string
		got, want float64
	}{{"p50", a.RTTP50Ms, 55}, {"p90", a.RTTP90Ms, 91}, {"p99", a.RTTP99Ms, 99.1}} {
		if math.Abs(q.got-q.want) > 1e-9 {
			t.Errorf("a %s = %g ms, want %g", q.name, q.got, q.want)
		}
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
	if b.Samples != 0 || b.RTTP50Ms != 0 {
		t.Errorf("b samples = %d p50 = %g, want none", b.Samples, b.RTTP50Ms)
	}
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

// TestNodeRecorderRingOverwrite pins one peer's ring: past 128 RTTs
// each new one overwrites the oldest, so the percentiles are taken over
// the latest 128 and every overwrite is counted.
func TestNodeRecorderRingOverwrite(t *testing.T) {
	r, err := NewNodeRecorder(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const extra = 72
	for i := 1; i <= nodeRingSize+extra; i++ {
		r.RecordRTT("a", time.Duration(i)*time.Millisecond)
	}
	s := r.Snapshot()
	a := s.Peers[0]
	if a.Samples != nodeRingSize || s.Samples != nodeRingSize {
		t.Errorf("samples = %d (total %d), want %d", a.Samples, s.Samples, nodeRingSize)
	}
	if s.Overwrites != extra || s.Evictions != 0 {
		t.Errorf("overwrites = %d evictions = %d, want %d and 0", s.Overwrites, s.Evictions, extra)
	}
	// The ring holds 73..200 ms, whose median is 136.5 ms.
	if want := float64(extra) + float64(nodeRingSize+1)/2; a.RTTP50Ms != want {
		t.Errorf("p50 = %g ms, want %g (the latest %d RTTs)", a.RTTP50Ms, want, nodeRingSize)
	}
	// A full ring overwrites in place: steady-state recording is
	// allocation-free.
	if n := testing.AllocsPerRun(100, func() { r.RecordRTT("a", time.Millisecond) }); n != 0 {
		t.Errorf("RecordRTT on a full ring allocates %g times", n)
	}
}

// TestNodeRecorderMemoryBound records more peers than the table keeps,
// each past its ring, and checks occupancy never exceeds the fixed
// bound: 1024 peers of 128 RTTs.
func TestNodeRecorderMemoryBound(t *testing.T) {
	r, err := NewNodeRecorder(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const bound = nodeMaxPeers * nodeRingSize
	peers := make([]string, nodeMaxPeers+76)
	for i := range peers {
		peers[i] = fmt.Sprintf("peer-%04d", i)
	}
	for round := 0; round < 2; round++ {
		for i, p := range peers {
			for n := 0; n < nodeRingSize+2; n++ {
				r.RecordRTT(p, time.Millisecond)
			}
			if i%100 != 0 {
				continue
			}
			if s := r.Snapshot(); s.Samples > bound || len(s.Peers) > nodeMaxPeers {
				t.Fatalf("round %d peer %d: %d samples over %d peers, bounds %d / %d",
					round, i, s.Samples, len(s.Peers), bound, nodeMaxPeers)
			}
		}
	}
	s := r.Snapshot()
	if s.Samples != bound || len(s.Peers) != nodeMaxPeers {
		t.Errorf("full table: %d samples over %d peers, want %d / %d", s.Samples, len(s.Peers), bound, nodeMaxPeers)
	}
	if s.Evictions == 0 || s.Overwrites == 0 {
		t.Errorf("evictions = %d overwrites = %d, want both non-zero", s.Evictions, s.Overwrites)
	}
}

// TestBufferMemoryBound churns the recorder's RTT buffers: windows of
// 257 short-lived peers, about four RTTs each, pass through the table
// while one hot peer is recorded about on every step. Occupancy stays
// within the bound throughout, short-lived peers are evicted with their
// RTTs, and the hot peer keeps a full ring of its latest RTTs.
func TestBufferMemoryBound(t *testing.T) {
	r, err := NewNodeRecorder(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		adds  = 20_000
		bound = nodeMaxPeers * nodeRingSize
	)
	for i := 0; i < adds; i++ {
		r.RecordRTT(fmt.Sprintf("p%05d", i%257+257*(i/1000)), time.Millisecond)
		r.RecordRTT("hot", time.Duration(i)*time.Microsecond)
		if i%100 != 0 {
			continue
		}
		s := r.Snapshot()
		if s.Samples > bound || len(s.Peers) > nodeMaxPeers {
			t.Fatalf("after %d adds: %d samples over %d peers, bounds %d / %d",
				i+1, s.Samples, len(s.Peers), bound, nodeMaxPeers)
		}
		for _, p := range s.Peers {
			if p.Peer != "hot" && p.Samples > 4 {
				t.Fatalf("after %d adds: short-lived peer %s holds %d RTTs, want <= 4", i+1, p.Peer, p.Samples)
			}
		}
	}
	s := r.Snapshot()
	if len(s.Peers) != nodeMaxPeers {
		t.Errorf("full table lists %d peers, want %d", len(s.Peers), nodeMaxPeers)
	}
	if s.Evictions == 0 {
		t.Error("churn caused no evictions")
	}
	if want := uint64(adds - nodeRingSize); s.Overwrites != want {
		t.Errorf("overwrites = %d, want %d (the hot peer's ring only)", s.Overwrites, want)
	}
	for _, p := range s.Peers {
		if p.Peer != "hot" {
			continue
		}
		// The hot ring holds the latest 128 RTTs: 19872..19999 µs.
		if want := float64(adds-nodeRingSize)/1000 + float64(nodeRingSize-1)/2000; p.Samples != nodeRingSize || math.Abs(p.RTTP50Ms-want) > 1e-9 {
			t.Errorf("hot peer: %d samples p50 %g ms, want %d and %g", p.Samples, p.RTTP50Ms, nodeRingSize, want)
		}
		return
	}
	t.Error("the hot peer, recorded about on every step, was evicted")
}

// TestBufferConcurrent races RTT writes over far more peer names than
// the table holds against Snapshot and its occupancy figures; run under
// -race this is the thread-safety proof for the recorder's RTT buffers
// while peers are being evicted.
func TestBufferConcurrent(t *testing.T) {
	r, err := NewNodeRecorder(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const bound = nodeMaxPeers * nodeRingSize
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.RecordRTT(fmt.Sprintf("p%04d", (w*31+i)%97+97*(i/50)), time.Duration(i)*time.Microsecond)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			s := r.Snapshot()
			sum := 0
			for _, p := range s.Peers {
				sum += p.Samples
			}
			if s.Samples > bound || len(s.Peers) > nodeMaxPeers || s.Samples != sum {
				t.Errorf("snapshot: %d samples (peers hold %d) over %d peers, bounds %d / %d",
					s.Samples, sum, len(s.Peers), bound, nodeMaxPeers)
				return
			}
		}
	}()
	wg.Wait()
	s := r.Snapshot()
	if s.RTT.Count != 8000 {
		t.Errorf("rtt count = %d, want 8000", s.RTT.Count)
	}
	if s.Evictions == 0 {
		t.Error("3880 peer names caused no evictions")
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
	if len(s.Peers) > nodeMaxPeers {
		t.Fatalf("snapshot lists %d peers, bound %d", len(s.Peers), nodeMaxPeers)
	}
	listed := make(map[string]PeerSnapshot, len(s.Peers))
	for _, p := range s.Peers {
		listed[p.Peer] = p
	}
	for i := names - (nodeMaxPeers - 1); i < names; i++ {
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

	// A peer's counters and RTTs leave the table together: one RTT for
	// zzz, then one each for 1024 other peers, evicts zzz with its
	// sample, and the sample total is the sum over the listed peers.
	r, err = NewNodeRecorder(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r.RecordRTT("zzz", time.Millisecond)
	for i := 0; i < nodeMaxPeers; i++ {
		r.RecordRTT(fmt.Sprintf("p%04d", i), time.Millisecond)
	}
	s = r.Snapshot()
	sum := 0
	for _, p := range s.Peers {
		sum += p.Samples
		if p.Peer == "zzz" {
			t.Errorf("zzz, the least recently recorded about, is still listed")
		}
		if p.Samples == 0 {
			t.Errorf("peer %s had an RTT recorded but is listed with 0 samples", p.Peer)
		}
	}
	if s.Samples != sum {
		t.Errorf("samples = %d, but the %d listed peers hold %d", s.Samples, len(s.Peers), sum)
	}
	if s.Samples != nodeMaxPeers || s.Evictions != 1 {
		t.Errorf("samples = %d evictions = %d, want %d and 1", s.Samples, s.Evictions, nodeMaxPeers)
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
			if len(s.Peers) > len(peers) || s.Samples > len(peers)*nodeRingSize {
				t.Errorf("snapshot has %d samples over %d peers", s.Samples, len(s.Peers))
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
