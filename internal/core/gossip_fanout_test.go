package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lifeguard/internal/sim"
	"lifeguard/internal/wire"
)

// sendRec is one captured transport send.
type sendRec struct {
	addr    string
	payload []byte
}

// recordTransport captures per-target sends (no fan-out extension).
type recordTransport struct {
	sends []sendRec
}

func (r *recordTransport) LocalAddr() string { return "self" }
func (r *recordTransport) SendPacket(addr string, payload []byte, _ bool) error {
	r.sends = append(r.sends, sendRec{addr: addr, payload: append([]byte(nil), payload...)})
	return nil
}

// recordFanoutTransport additionally implements FanoutTransport,
// recording grouped sends expanded per destination plus a group count.
type recordFanoutTransport struct {
	recordTransport
	groups     int
	groupSizes []int
}

func (r *recordFanoutTransport) SendPacketFanout(addrs []string, payload []byte, _ bool) error {
	r.groups++
	r.groupSizes = append(r.groupSizes, len(addrs))
	for _, a := range addrs {
		r.sends = append(r.sends, sendRec{addr: a, payload: append([]byte(nil), payload...)})
	}
	return nil
}

// newGossipNode builds a started node on the given transport with size
// members merged in, everything else deterministic and identical across
// calls.
func newGossipNode(t *testing.T, tr Transport, size int) *Node {
	t.Helper()
	sched := sim.NewScheduler(time.Unix(0, 0))
	cfg := DefaultConfig("self")
	cfg.Clock = sim.NewClock(sched)
	cfg.Transport = tr
	cfg.RNG = rand.New(rand.NewSource(11))
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Shutdown)
	n.mu.Lock()
	for i := 0; i < size; i++ {
		name := fmt.Sprintf("member-%03d", i)
		n.handleAliveLocked(&wire.Alive{Incarnation: 1, Node: name, Addr: name})
	}
	n.mu.Unlock()
	return n
}

// TestGossipFanoutMatchesPerTargetSends is the shared-encode
// equivalence pin at the node layer: a gossip round through the
// fan-out transport must put exactly the packets on the wire that the
// per-target select-and-encode loop puts there — same targets, same
// order, byte-identical payloads — while actually coalescing the
// identical ones into grouped sends.
func TestGossipFanoutMatchesPerTargetSends(t *testing.T) {
	plain := &recordTransport{}
	grouped := &recordFanoutTransport{}
	a := newGossipNode(t, plain, 40)
	b := newGossipNode(t, grouped, 40)

	for round := 0; round < 6; round++ {
		a.mu.Lock()
		a.gossipLocked()
		a.mu.Unlock()
		b.mu.Lock()
		b.gossipLocked()
		b.mu.Unlock()
	}

	if len(plain.sends) == 0 {
		t.Fatal("no gossip packets sent")
	}
	if len(plain.sends) != len(grouped.sends) {
		t.Fatalf("per-target path sent %d packets, fan-out path %d",
			len(plain.sends), len(grouped.sends))
	}
	for i := range plain.sends {
		if plain.sends[i].addr != grouped.sends[i].addr {
			t.Fatalf("send %d addressed to %s via fan-out, %s per-target",
				i, grouped.sends[i].addr, plain.sends[i].addr)
		}
		if !bytes.Equal(plain.sends[i].payload, grouped.sends[i].payload) {
			t.Fatalf("send %d to %s: fan-out payload differs from per-target payload",
				i, plain.sends[i].addr)
		}
	}
	if grouped.groups == 0 {
		t.Fatal("fan-out transport was never used for a gossip group")
	}
	coalesced := false
	for _, size := range grouped.groupSizes {
		if size > 1 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Fatalf("every fan-out group had a single target (%v); shared encoding never engaged",
			grouped.groupSizes)
	}
}
