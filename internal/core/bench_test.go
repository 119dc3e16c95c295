package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lifeguard/internal/coords"
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
func newBenchNode(b *testing.B, size int, configure func(*Config)) *Node {
	b.Helper()
	sched := sim.NewScheduler(time.Unix(0, 0))

	cfg := DefaultConfig("self")
	cfg.Clock = sim.NewClock(sched)
	cfg.Transport = benchTransport{}
	cfg.RNG = rand.New(rand.NewSource(1))
	cfg.Metrics = metrics.NewMemSink()
	if configure != nil {
		configure(cfg)
	}
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

// warmCoords feeds the local Vivaldi engine enough synthetic RTT
// observations to pass the cold-start gate and cache a coordinate for
// every member, so the latency-aware gossip path is exercised.
func warmCoords(b *testing.B, n *Node) {
	b.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	origin := coords.NewCoordinate(coords.DefaultConfig())
	for _, m := range n.roster {
		if m == n.self {
			continue
		}
		if _, err := n.coordClient.Update(m.Name, origin, time.Millisecond); err != nil {
			b.Fatalf("coord update for %s: %v", m.Name, err)
		}
	}
	if !n.coordWarmLocked() {
		b.Fatalf("coordinates still cold after %d updates", len(n.roster)-1)
	}
}

// BenchmarkGossipTargets measures one gossip tick's fanout selection at
// a 1k-member roster. Both paths must be allocation-free in steady
// state: the uniform path appends into the node's reusable target
// scratch, and the latency-aware path additionally reuses the candidate
// pool, candidate-name, ranked-index and pick-mark scratch that used to
// be a fresh slice + two maps per tick.
func BenchmarkGossipTargets(b *testing.B) {
	b.Run("uniform", func(b *testing.B) {
		n := newBenchNode(b, 1000, nil)
		n.mu.Lock()
		defer n.mu.Unlock()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := n.gossipTargetsLocked(); len(got) == 0 {
				b.Fatal("no targets selected")
			}
		}
	})
	b.Run("latency-aware", func(b *testing.B) {
		n := newBenchNode(b, 1000, func(cfg *Config) {
			cfg.TopologyAware = true
		})
		warmCoords(b, n)
		n.mu.Lock()
		defer n.mu.Unlock()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := n.gossipTargetsLocked(); len(got) == 0 {
				b.Fatal("no targets selected")
			}
		}
	})
}

// TestGossipTargetsAllocs pins both gossip fanout paths at zero
// steady-state allocations, so the per-tick map/slice builds this
// selection used to do cannot quietly return.
func TestGossipTargetsAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		configure func(*Config)
		warm      bool
	}{
		{name: "uniform"},
		{name: "latency-aware", configure: func(cfg *Config) { cfg.TopologyAware = true }, warm: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b testing.B
			n := newBenchNode(&b, 200, tc.configure)
			if tc.warm {
				warmCoords(&b, n)
			}
			if b.Failed() {
				t.Fatal("bench node setup failed")
			}
			n.mu.Lock()
			defer n.mu.Unlock()
			n.gossipTargetsLocked() // grow every scratch buffer once
			allocs := testing.AllocsPerRun(100, func() {
				n.gossipTargetsLocked()
			})
			if allocs > 0 {
				t.Fatalf("gossip fanout selection allocates %.1f per tick, want 0", allocs)
			}
		})
	}
}

// BenchmarkPushPullSnapshot measures one push-pull exchange's state
// snapshot at a 1k-member table, taken from the pool and returned. The
// incrementally maintained sorted roster plus the pooled table make it a
// straight copy and a clear — zero allocations and no per-exchange sort
// (the old path allocated a fresh slice and sort.Slice'd the whole table
// every exchange).
func BenchmarkPushPullSnapshot(b *testing.B) {
	n := newBenchNode(b, 1000, nil)
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
