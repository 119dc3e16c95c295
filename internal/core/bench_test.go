package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lifeguard/internal/metrics"
	"lifeguard/internal/sim"
	"lifeguard/internal/wire"
)

// benchTransport swallows every packet: these benchmarks measure the
// node's selection paths, not encoding or delivery.
type benchTransport struct{}

func (benchTransport) LocalAddr() string                     { return "self" }
func (benchTransport) SendPacket(string, []byte, bool) error { return nil }

// newBenchNode builds a started node with size members merged in, on a
// virtual clock that never advances during the measured loop.
func newBenchNode(b *testing.B, size int) *Node {
	b.Helper()
	sched := sim.NewScheduler(time.Unix(0, 0))

	cfg := DefaultConfig("self")
	cfg.Clock = sim.NewClock(sched)
	cfg.Transport = benchTransport{}
	cfg.RNG = rand.New(rand.NewSource(1))
	cfg.Metrics = metrics.NewMemSink()
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := n.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(n.Shutdown)

	n.mu.Lock()
	for i := 0; i < size; i++ {
		name := fmt.Sprintf("member-%05d", i)
		n.handleAliveLocked(&wire.Alive{Incarnation: 1, Node: name, Addr: name})
	}
	n.mu.Unlock()
	return n
}

// BenchmarkGossipTargets measures one gossip tick's fanout selection at
// a 1k-member roster. It must be allocation-free: the picks append into
// an array on the caller's stack, as gossipLocked's do.
func BenchmarkGossipTargets(b *testing.B) {
	n := newBenchNode(b, 1000)
	n.mu.Lock()
	defer n.mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf [gossipNodes]*memberState
		if got := n.gossipTargetsLocked(buf[:0]); len(got) == 0 {
			b.Fatal("no targets selected")
		}
	}
}

// TestGossipTargetsAllocs pins the gossip fanout selection at zero
// allocations, so the per-tick slice builds it used to do cannot
// quietly return.
func TestGossipTargetsAllocs(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		var b testing.B
		n := newBenchNode(&b, 200)
		if b.Failed() {
			t.Fatal("bench node setup failed")
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		allocs := testing.AllocsPerRun(100, func() {
			var buf [gossipNodes]*memberState
			n.gossipTargetsLocked(buf[:0])
		})
		if allocs > 0 {
			t.Fatalf("gossip fanout selection allocates %.1f per tick, want 0", allocs)
		}
	})
}

// BenchmarkPushPullSnapshot measures one push-pull exchange's state
// snapshot at a 1k-member table, taken from the pool and returned. The
// incrementally maintained sorted roster plus the pooled table make it a
// straight copy and a clear — zero allocations and no per-exchange sort
// (the old path allocated a fresh slice and sort.Slice'd the whole table
// every exchange).
func BenchmarkPushPullSnapshot(b *testing.B) {
	n := newBenchNode(b, 1000)
	n.mu.Lock()
	defer n.mu.Unlock()
	putStates(n.localStatesLocked()) // grow a pooled table once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := n.localStatesLocked()
		if len(got) != 1001 {
			b.Fatalf("snapshot has %d states, want 1001", len(got))
		}
		putStates(got)
	}
}
