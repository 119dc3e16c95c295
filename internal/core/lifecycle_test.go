package core

import (
	"testing"
	"time"

	"lifeguard/internal/wire"
)

// Edge-case lifecycle behaviour not covered by the main state tests.

func TestAckForUnknownSeqIgnored(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	// Must not panic or disturb state.
	h.inject("m1", &wire.Ack{SeqNo: 4242, Source: "m1"})
	h.inject("m1", &wire.Nack{SeqNo: 4242, Source: "m1"})
	if got := h.state("m1").State; got != StateAlive {
		t.Errorf("state = %v", got)
	}
}

func TestLateAckAfterPeriodIgnored(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.unresponsive["m1"] = true
	h.clearSent()

	// Round fails at t=2s; a very late ack must not revive the handler
	// or lower the LHM retroactively.
	h.run(2100 * time.Millisecond)
	if got := h.state("m1").State; got != StateSuspect {
		t.Fatalf("state = %v", got)
	}
	lhmBefore := h.node.HealthScore()
	pings := h.sentOfType(wire.TypePing)
	if len(pings) == 0 {
		t.Fatal("no pings")
	}
	seq := pings[0].msg.(*wire.Ping).SeqNo
	h.inject("m1", &wire.Ack{SeqNo: seq, Source: "m1"})
	if got := h.node.HealthScore(); got != lhmBefore {
		t.Errorf("late ack changed LHM %d -> %d", lhmBefore, got)
	}
	// The suspicion stands (the ack is not a refutation).
	if got := h.state("m1").State; got != StateSuspect {
		t.Errorf("late ack cleared suspicion: %v", got)
	}
}

func TestIndirectPingForUnknownTargetIgnored(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("origin", 1)
	h.clearSent()
	h.inject("origin", &wire.IndirectPing{SeqNo: 1, Target: "stranger", Source: "origin"})
	if len(h.sent) != 0 {
		t.Errorf("relay acted on unknown target: %d packets", len(h.sent))
	}
}

func TestRelayStateExpires(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("origin", 1)
	h.addMember("target", 1)
	h.unresponsive["target"] = true
	h.inject("origin", &wire.IndirectPing{SeqNo: 5, Target: "target", Source: "origin", WantNack: true})
	// After 2 protocol periods the relay bookkeeping must be gone: a
	// very late ack from the target is not forwarded.
	h.run(3 * time.Second)
	h.clearSent()
	pings := 0
	for range h.sentOfType(wire.TypePing) {
		pings++
	}
	_ = pings
	// Find the relay's own ping seq from history is gone; inject a
	// guess-range of acks and verify none are forwarded to origin.
	for seq := uint32(1); seq < 20; seq++ {
		h.inject("target", &wire.Ack{SeqNo: seq, Source: "target"})
	}
	for _, p := range h.sentOfType(wire.TypeAck) {
		if p.pkt.to == "origin" {
			t.Fatal("expired relay still forwarded an ack")
		}
	}
}

func TestDeadMemberRevivalRejoinsProbeList(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("x", &wire.Dead{Incarnation: 1, Node: "m1", From: "x"})
	h.clearSent()
	h.run(5 * time.Second)
	if len(h.sentOfType(wire.TypePing)) != 0 {
		t.Fatal("dead member probed")
	}
	// Revive; probing must resume.
	h.addMember("m1", 2)
	h.clearSent()
	h.run(5 * time.Second)
	if len(h.sentOfType(wire.TypePing)) == 0 {
		t.Fatal("revived member never probed again")
	}
}

func TestLeftMemberNotProbedOrGossipedTo(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.addMember("m2", 1)
	h.inject("x", &wire.Dead{Incarnation: 1, Node: "m1", From: "m1"}) // graceful leave
	h.clearSent()
	h.run(10 * time.Second)
	for _, pkt := range h.sent {
		if pkt.to == "m1" {
			t.Fatalf("traffic to left member: %v", pkt.msgs[0].Type())
		}
	}
}

func TestSuspicionTimeoutUsesClusterSize(t *testing.T) {
	// With a larger known group, the suspicion floor grows as
	// α·log10(n); verify indirectly: a 100-member view must keep a
	// suspect alive past the 2-member timeout.
	h := newHarness(t, nil)
	for i := 0; i < 99; i++ {
		h.addMember(nodeName(i), 1)
	}
	// n=100 → Min = 10s, Max = 60s.
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: nodeName(3), From: "x"})
	h.run(35 * time.Second) // past the n=2 Max of 30s
	if got := h.state(nodeName(3)).State; got != StateSuspect {
		t.Fatalf("state = %v at 35s; expected still suspect under n=100 timeout", got)
	}
	h.run(30 * time.Second) // past 60s total
	if got := h.state(nodeName(3)).State; got != StateDead {
		t.Fatalf("state = %v at 65s", got)
	}
}

func TestWakeWithNothingDeferredIsSafe(t *testing.T) {
	h := newHarness(t, nil)
	h.node.Wake()
	h.node.Wake()
}

func TestLeavePendingTracksLeaveBroadcast(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	if h.node.LeavePending() {
		t.Error("leave pending before Leave")
	}
	h.node.Leave()
	if !h.node.LeavePending() {
		t.Error("leave not pending immediately after Leave")
	}
	// Gossip hands the announcement out until its retransmit budget is
	// spent; LeavePending must go false then, even though other updates
	// (the suspicion and death of the silent peer) stay queued.
	h.run(time.Minute)
	if h.node.LeavePending() {
		t.Errorf("leave still pending after a minute of gossip (%d broadcasts queued)",
			h.node.PendingBroadcasts())
	}
}

func TestLeaveThenShutdownSequence(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.node.Leave()
	h.node.Leave() // idempotent
	if got, _ := h.node.Member("self"); got.State != StateLeft {
		t.Errorf("self state = %v after leave", got.State)
	}
	h.node.Shutdown()
}

func TestProbeTickWithNoPeersIsQuiet(t *testing.T) {
	h := newHarness(t, nil)
	h.clearSent()
	h.run(10 * time.Second)
	if got := len(h.sentOfType(wire.TypePing)); got != 0 {
		t.Errorf("%d pings with no peers", got)
	}
}

func TestMembersSnapshotIsCopy(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	ms := h.node.Members()
	for i := range ms {
		ms[i].State = StateDead
		ms[i].Name = "mutated"
	}
	if got := h.state("m1").State; got != StateAlive {
		t.Error("Members() exposed internal state")
	}
}

func TestIncarnationMonotoneUnderRefutationStorm(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	prev := h.node.Incarnation()
	for i := 0; i < 50; i++ {
		h.inject("m1", &wire.Suspect{Incarnation: prev, Node: "self", From: "m1"})
		got := h.node.Incarnation()
		if got <= prev {
			t.Fatalf("incarnation not monotone: %d -> %d", prev, got)
		}
		prev = got
	}
	// LHM saturates rather than overflowing.
	if got := h.node.HealthScore(); got > maxLHM {
		t.Errorf("LHM %d beyond saturation", got)
	}
}

func TestBlockedPushPullDeferred(t *testing.T) {
	h := newHarness(t, nil)
	// Two members: the blocked probe round will suspect one of them at
	// wake (its deadlines are long past), and the deferred push-pull
	// needs an alive peer left to contact.
	h.addMember("m1", 1)
	h.addMember("m2", 1)
	h.blocked = true
	h.clearSent()
	h.run(90 * time.Second) // several push-pull intervals while blocked
	if got := len(h.sentOfType(wire.TypePushPullReq)); got != 0 {
		t.Fatalf("%d push-pulls escaped a blocked member", got)
	}
	h.blocked = false
	h.node.Wake()
	h.run(100 * time.Millisecond)
	if got := len(h.sentOfType(wire.TypePushPullReq)); got != 1 {
		t.Errorf("%d push-pulls at wake, want exactly 1 (coalesced)", got)
	}
}

func TestReconnectAttemptsDeadMembers(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.addMember("m2", 1)
	h.inject("x", &wire.Dead{Incarnation: 1, Node: "m1", From: "x"})
	h.clearSent()
	h.run(80 * time.Second) // a couple of reconnect intervals

	found := false
	for _, p := range h.sentOfType(wire.TypePushPullReq) {
		if p.pkt.to == "m1" {
			found = true
			if !p.pkt.reliable {
				t.Error("reconnect push-pull not on the reliable channel")
			}
		}
	}
	if !found {
		t.Fatal("no reconnect attempt to the dead member")
	}
}
