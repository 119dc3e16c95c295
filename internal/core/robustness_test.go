package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lifeguard/internal/timeutil"
	"lifeguard/internal/wire"
)

// --- Hostile input ---

func TestHandlePacketGarbageNeverPanics(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	f := func(from string, payload []byte) bool {
		h.node.HandlePacket(from, payload)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if got := h.sink.Get("decode_errors"); got == 0 {
		t.Error("no decode errors counted for garbage input")
	}
}

func TestQuickRandomValidMessagesKeepInvariants(t *testing.T) {
	// Fire random well-formed protocol messages at a node and check the
	// core invariants after each: the node's own record stays alive, the
	// alive count matches the table, incarnations never regress, and the
	// member indexes agree (auditIndexes).
	h := newHarness(t, nil)
	names := []string{"m1", "m2", "m3", "self"}
	for _, n := range names[:3] {
		h.addMember(n, 1)
	}
	lastInc := map[string]uint64{}

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		name := names[rng.Intn(len(names))]
		inc := uint64(rng.Intn(8))
		from := names[rng.Intn(len(names))]
		var msg wire.Message
		switch rng.Intn(4) {
		case 0:
			msg = &wire.Alive{Incarnation: inc, Node: name, Addr: name}
		case 1:
			msg = &wire.Suspect{Incarnation: inc, Node: name, From: from}
		case 2:
			msg = &wire.Dead{Incarnation: inc, Node: name, From: from}
		case 3:
			msg = &wire.Ping{SeqNo: uint32(rng.Intn(100)), Target: "self", Source: from}
		}
		h.inject(from, msg)
		if rng.Intn(10) == 0 {
			h.run(time.Duration(rng.Intn(300)) * time.Millisecond)
		}

		if self, ok := h.node.Member("self"); !ok || self.State != StateAlive {
			t.Fatalf("iteration %d: self no longer alive (%+v)", i, self)
		}
		aliveCount := 0
		for _, m := range h.node.Members() {
			if m.State == StateAlive || m.State == StateSuspect {
				aliveCount++
			}
			if m.Incarnation < lastInc[m.Name] {
				t.Fatalf("iteration %d: %s incarnation regressed %d -> %d",
					i, m.Name, lastInc[m.Name], m.Incarnation)
			}
			lastInc[m.Name] = m.Incarnation
		}
		if aliveCount != h.node.NumAlive() {
			t.Fatalf("iteration %d: alive count %d != table %d", i, h.node.NumAlive(), aliveCount)
		}
		auditIndexes(t, h.node)
	}
}

// --- Concurrency under the real clock (run with -race) ---

// chanTransport delivers packets to a sibling node through goroutines,
// exercising the real-time locking paths.
type chanTransport struct {
	mu    sync.Mutex
	peers map[string]*Node
	addr  string
}

func (c *chanTransport) LocalAddr() string { return c.addr }

func (c *chanTransport) SendPacket(to string, payload []byte, _ bool) error {
	c.mu.Lock()
	peer := c.peers[to]
	c.mu.Unlock()
	if peer == nil {
		return nil
	}
	// The payload is only valid for the duration of this call (Transport
	// contract); copy before handing it to the delivery goroutine.
	owned := append([]byte(nil), payload...)
	go peer.HandlePacket(c.addr, owned)
	return nil
}

func TestConcurrentRealClockCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock test")
	}
	peers := make(map[string]*Node)
	var peersMu sync.Mutex

	var nodes []*Node
	for _, name := range []string{"a", "b", "c"} {
		tr := &chanTransport{peers: peers, addr: name}
		tr.mu = sync.Mutex{}
		cfg := DefaultConfig(name)
		cfg.Transport = tr
		cfg.Clock = timeutil.RealClock{}
		cfg.RNG = rand.New(rand.NewSource(int64(len(nodes) + 1)))
		cfg.ProbeInterval = 20 * time.Millisecond
		cfg.ProbeTimeout = 10 * time.Millisecond
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		peersMu.Lock()
		peers[name] = node
		peersMu.Unlock()
	}
	for _, n := range nodes {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, n := range nodes {
			n.Shutdown()
		}
	}()
	if err := nodes[1].Join("a"); err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].Join("a"); err != nil {
		t.Fatal(err)
	}

	// Hammer the public API from several goroutines while the protocol
	// runs on real timers: every read the agent's ops surface serves
	// from its HTTP goroutines, two readers per node. Under -race this
	// checks that each one takes the node lock, which alone guards the
	// gossip queue and the LHM.
	var wg sync.WaitGroup
	stop := time.Now().Add(500 * time.Millisecond)
	for _, n := range nodes {
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stop) {
					n.Members()
					n.NumAlive()
					n.HealthScore()
					n.Incarnation()
					n.PendingBroadcasts()
					n.LeavePending()
				}
			}()
		}
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if nodes[0].NumAlive() == 3 && nodes[1].NumAlive() == 3 && nodes[2].NumAlive() == 3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no convergence: %d/%d/%d alive",
		nodes[0].NumAlive(), nodes[1].NumAlive(), nodes[2].NumAlive())
}
