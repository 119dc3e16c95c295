package core

import (
	"testing"
	"time"

	"lifeguard/internal/metrics"
	"lifeguard/internal/wire"
)

func TestGossipTickFlushesQueue(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.addMember("m2", 1)
	h.clearSent()

	// Queue an update, then let one gossip tick (200 ms) pass.
	h.inject("x", &wire.Alive{Incarnation: 3, Node: "m2", Addr: "m2"})
	h.run(250 * time.Millisecond)

	found := 0
	for _, s := range h.sentOfType(wire.TypeAlive) {
		if a := s.msg.(*wire.Alive); a.Node == "m2" && a.Incarnation == 3 {
			found++
		}
	}
	if found == 0 {
		t.Fatal("queued update not gossiped within one tick")
	}
}

func TestGossipFanout(t *testing.T) {
	h := newHarness(t, nil)
	for i := 0; i < 8; i++ {
		h.addMember(nodeName(i), 1)
	}
	h.clearSent()
	h.inject("x", &wire.Alive{Incarnation: 5, Node: nodeName(0), Addr: nodeName(0)})

	// One tick: at most gossipNodes pure-gossip packets (plus any probe
	// traffic, which carries a ping).
	h.run(210 * time.Millisecond)
	gossipPkts := 0
	for _, pkt := range h.sent {
		hasPing := false
		for _, m := range pkt.msgs {
			switch m.Type() {
			case wire.TypePing, wire.TypeIndirectPing, wire.TypeAck, wire.TypeNack,
				wire.TypePushPullReq, wire.TypePushPullResp:
				hasPing = true
			}
		}
		if !hasPing {
			gossipPkts++
		}
	}
	if gossipPkts > gossipNodes {
		t.Errorf("%d pure gossip packets in one tick, want <= fanout %d", gossipPkts, gossipNodes)
	}
}

func TestGossipIdleQueueSendsNothing(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	// Drain the join broadcasts fully.
	h.drainQueue()
	h.clearSent()
	h.run(time.Second) // 5 gossip ticks, 1 probe

	for _, pkt := range h.sent {
		for _, m := range pkt.msgs {
			switch m.Type() {
			case wire.TypePing, wire.TypeAck:
				// probe traffic is fine
			default:
				t.Fatalf("idle node sent %s", m.Type())
			}
		}
	}
}

func TestPiggybackOnAck(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("x", &wire.Alive{Incarnation: 9, Node: "m1", Addr: "m1"})
	h.clearSent()

	// Answering a ping must piggyback the queued update (the paper's
	// dissemination path: updates ride on ping/ping-req/ack).
	h.inject("m1", &wire.Ping{SeqNo: 3, Target: "self", Source: "m1"})
	pkts := h.sent
	if len(pkts) != 1 {
		t.Fatalf("%d packets", len(pkts))
	}
	hasAck, hasAlive := false, false
	for _, m := range pkts[0].msgs {
		switch mm := m.(type) {
		case *wire.Ack:
			hasAck = true
		case *wire.Alive:
			if mm.Node == "m1" && mm.Incarnation == 9 {
				hasAlive = true
			}
		}
	}
	if !hasAck || !hasAlive {
		t.Errorf("ack packet missing piggyback: ack=%v alive=%v", hasAck, hasAlive)
	}
}

func TestSeqNoMonotoneAcrossRounds(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.clearSent()
	h.run(10 * time.Second)

	var last uint32
	for _, p := range h.sentOfType(wire.TypePing) {
		seq := p.msg.(*wire.Ping).SeqNo
		if seq <= last {
			t.Fatalf("sequence numbers not monotone: %d after %d", seq, last)
		}
		last = seq
	}
}

func TestMsgsSentCounterCountsCompoundOnce(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.clearSent()
	before := h.sink.Get(metrics.CounterMsgsSent)
	// A ping with piggybacked gossip is one compound packet: one count.
	h.inject("m1", &wire.Ping{SeqNo: 1, Target: "self", Source: "m1"})
	after := h.sink.Get(metrics.CounterMsgsSent)
	if after-before != 1 {
		t.Errorf("msgs_sent delta = %d, want 1", after-before)
	}
	if got := h.sink.Get(metrics.CounterBytesSent); got == 0 {
		t.Error("bytes_sent not counted")
	}
}
