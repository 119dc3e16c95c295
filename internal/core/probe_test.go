package core

import (
	"fmt"
	"testing"
	"time"

	"lifeguard/internal/metrics"
	"lifeguard/internal/wire"
)

func TestProbeSendsPingEachPeriod(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.clearSent()
	h.run(3500 * time.Millisecond)

	pings := h.sentOfType(wire.TypePing)
	if len(pings) != 3 {
		t.Fatalf("sent %d pings in 3.5 periods, want 3", len(pings))
	}
	for _, p := range pings {
		ping := p.msg.(*wire.Ping)
		if ping.Target != "m1" || ping.Source != "self" {
			t.Errorf("ping = %+v", ping)
		}
	}
}

func TestProbeRoundRobinCoversAllMembers(t *testing.T) {
	h := newHarness(t, nil)
	const n = 8
	for i := 0; i < n; i++ {
		h.addMember(fmt.Sprintf("m%d", i), 1)
	}
	h.clearSent()
	// Two full passes: every member must be probed exactly twice —
	// round robin, not random selection.
	h.run(2 * n * time.Second)

	counts := map[string]int{}
	for _, p := range h.sentOfType(wire.TypePing) {
		counts[p.msg.(*wire.Ping).Target]++
	}
	if len(counts) != n {
		t.Fatalf("probed %d distinct members, want %d (%v)", len(counts), n, counts)
	}
	for name, c := range counts {
		if c != 2 {
			t.Errorf("%s probed %d times, want 2", name, c)
		}
	}
}

func TestProbeSkipsDeadMembers(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.addMember("m2", 1)
	h.inject("x", &wire.Dead{Incarnation: 1, Node: "m1", From: "x"})
	h.clearSent()
	h.run(6 * time.Second)
	for _, p := range h.sentOfType(wire.TypePing) {
		if p.msg.(*wire.Ping).Target == "m1" {
			t.Fatal("probed a dead member")
		}
	}
}

func TestSuccessfulProbeLowersLHM(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	// Charge the LHM first.
	h.node.lhm = 4
	// One successful probe round: −1.
	h.run(5 * time.Second) // scaled interval is 5s at LHM=4
	if got := h.node.HealthScore(); got >= 4 {
		t.Errorf("LHM = %d, want < 4 after successful probes", got)
	}
}

func TestFailedProbeRaisesLHMAndSuspects(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.unresponsive["m1"] = true
	h.clearSent()

	// The round starts at the first tick (t = 1 s) and closes one full
	// period later (t = 2 s).
	h.run(2100 * time.Millisecond)
	if got := h.state("m1").State; got != StateSuspect {
		t.Fatalf("state = %v after failed round", got)
	}
	// Failed probe +1; with LHA-Probe and no relays, no nack penalty.
	if got := h.node.HealthScore(); got != 1 {
		t.Errorf("LHM = %d, want 1", got)
	}
	if got := h.sink.Get(metrics.CounterProbeFailures); got != 1 {
		t.Errorf("probe failures = %d", got)
	}
	// The failure-origin suspicion names us as accuser.
	found := false
	for _, s := range h.sentOfType(wire.TypeSuspect) {
		sus := s.msg.(*wire.Suspect)
		if sus.Node == "m1" && sus.From == "self" {
			found = true
		}
	}
	if !found {
		t.Error("own suspicion not gossiped with From=self")
	}
}

func TestProbeTimeoutLaunchesIndirectAndFallback(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	for i := 0; i < 5; i++ {
		h.addMember(fmt.Sprintf("r%d", i), 1)
	}
	h.unresponsive["m1"] = true
	h.clearSent()

	// Walk the schedule until m1 is the round-robin target: detect by a
	// direct ping to m1.
	deadline := 20
	for i := 0; i < deadline; i++ {
		h.run(time.Second)
		if len(h.sentOfType(wire.TypeIndirectPing)) > 0 {
			break
		}
	}

	inds := h.sentOfType(wire.TypeIndirectPing)
	if len(inds) != 3 {
		t.Fatalf("sent %d ping-reqs, want k=3", len(inds))
	}
	relays := map[string]bool{}
	for _, p := range inds {
		ind := p.msg.(*wire.IndirectPing)
		if ind.Target != "m1" || ind.Source != "self" {
			t.Errorf("ping-req = %+v", ind)
		}
		if !ind.WantNack {
			t.Error("LHA-Probe enabled but WantNack false")
		}
		if p.pkt.to == "m1" || p.pkt.to == "self" {
			t.Errorf("ping-req relayed via %s", p.pkt.to)
		}
		if relays[p.pkt.to] {
			t.Errorf("duplicate relay %s", p.pkt.to)
		}
		relays[p.pkt.to] = true
	}

	// Reliable-channel fallback direct probe.
	foundTCP := false
	for _, p := range h.sentOfType(wire.TypePing) {
		if p.pkt.to == "m1" && p.pkt.reliable {
			foundTCP = true
		}
	}
	if !foundTCP {
		t.Error("no reliable fallback probe")
	}
}

func TestSWIMConfigSendsNoNackRequest(t *testing.T) {
	h := newHarness(t, func(cfg *Config) {
		cfg.LHAProbe = false
	})
	h.addMember("m1", 1)
	h.addMember("r1", 1)
	h.unresponsive["m1"] = true
	h.clearSent()
	h.run(5 * time.Second)

	for _, p := range h.sentOfType(wire.TypeIndirectPing) {
		if p.msg.(*wire.IndirectPing).WantNack {
			t.Fatal("WantNack set without LHA-Probe")
		}
	}
}

func TestMissedNackChargesLHM(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.addMember("r1", 1)
	h.addMember("r2", 1)
	h.unresponsive["m1"] = true
	h.clearSent()

	// One full failed round: probes m1 (2 relays enlisted, both silent).
	// Expected LHM delta: +1 failed probe, +2 missed nacks = 3. Probing
	// of r1/r2 in other rounds gives −1 each.
	var indirects int
	for i := 0; i < 10 && indirects == 0; i++ {
		h.run(time.Second)
		indirects = len(h.sentOfType(wire.TypeIndirectPing))
	}
	if indirects == 0 {
		t.Fatal("no indirect probes issued")
	}
	h.run(time.Second) // let the period close
	if got := h.node.HealthScore(); got < 2 {
		t.Errorf("LHM = %d, want >= 2 (failed probe + missed nacks)", got)
	}
}

func TestNackReceivedAvoidsMissedNackPenalty(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.addMember("r1", 1)
	h.unresponsive["m1"] = true
	h.clearSent()

	// Drive until the indirect probe goes out, then answer with a nack
	// from the relay.
	var seq uint32
	for i := 0; i < 10; i++ {
		h.run(time.Second)
		if inds := h.sentOfType(wire.TypeIndirectPing); len(inds) > 0 {
			seq = inds[0].msg.(*wire.IndirectPing).SeqNo
			break
		}
	}
	if seq == 0 {
		t.Fatal("no indirect probe")
	}
	h.inject("r1", &wire.Nack{SeqNo: seq, Source: "r1"})
	h.run(2 * time.Second)
	// +1 failed probe only; the nack proves the relay path. The probes
	// of r1 succeed (−1), so LHM must stay ≤ 1.
	if got := h.node.HealthScore(); got > 1 {
		t.Errorf("LHM = %d, want <= 1 with nack received", got)
	}
}

func TestAckAfterNackCountsAsSuccess(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.addMember("r1", 1)
	h.unresponsive["m1"] = true
	h.clearSent()

	// Step finely so the ack can be injected inside the round's window,
	// between the indirect probes going out and the period closing.
	var seq uint32
	for i := 0; i < 200 && seq == 0; i++ {
		h.run(100 * time.Millisecond)
		if inds := h.sentOfType(wire.TypeIndirectPing); len(inds) > 0 {
			seq = inds[0].msg.(*wire.IndirectPing).SeqNo
		}
	}
	if seq == 0 {
		t.Fatal("no indirect probe")
	}
	h.inject("r1", &wire.Nack{SeqNo: seq, Source: "r1"})
	h.inject("r1", &wire.Ack{SeqNo: seq, Source: "m1"}) // relayed ack after nack
	h.run(2 * time.Second)
	if got := h.state("m1").State; got != StateAlive {
		t.Fatalf("nack-then-ack round suspected the target (state %v)", got)
	}
}

func TestRelayBehaviour(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("origin", 1)
	h.addMember("target", 1)
	h.clearSent()

	// origin asks us to probe target with nack wanted.
	h.inject("origin", &wire.IndirectPing{SeqNo: 77, Target: "target", Source: "origin", WantNack: true})
	pings := h.sentOfType(wire.TypePing)
	if len(pings) != 1 {
		t.Fatalf("relay sent %d pings", len(pings))
	}
	relayPing := pings[0].msg.(*wire.Ping)
	if relayPing.Target != "target" || relayPing.Source != "self" {
		t.Errorf("relay ping = %+v", relayPing)
	}
	if relayPing.SeqNo == 77 {
		t.Error("relay reused the originator's sequence number")
	}

	// Target acks (the harness auto-ack already did); the relay must
	// forward an ack bearing the ORIGINATOR's sequence number.
	h.run(100 * time.Millisecond)
	found := false
	for _, p := range h.sentOfType(wire.TypeAck) {
		ack := p.msg.(*wire.Ack)
		if p.pkt.to == "origin" && ack.SeqNo == 77 && ack.Source == "target" {
			found = true
		}
	}
	if !found {
		t.Fatalf("forwarded ack missing: %+v", h.sentOfType(wire.TypeAck))
	}
	// No nack: the target answered inside the window.
	if len(h.sentOfType(wire.TypeNack)) != 0 {
		t.Error("nack sent despite timely ack")
	}
}

func TestRelaySendsNackWhenTargetSilent(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("origin", 1)
	h.addMember("target", 1)
	h.unresponsive["target"] = true
	h.clearSent()

	h.inject("origin", &wire.IndirectPing{SeqNo: 88, Target: "target", Source: "origin", WantNack: true})
	// Nack at 80% of 500 ms = 400 ms.
	h.run(350 * time.Millisecond)
	if len(h.sentOfType(wire.TypeNack)) != 0 {
		t.Fatal("nack before the 80% window")
	}
	h.run(100 * time.Millisecond)
	nacks := h.sentOfType(wire.TypeNack)
	if len(nacks) != 1 {
		t.Fatalf("got %d nacks", len(nacks))
	}
	nack := nacks[0].msg.(*wire.Nack)
	if nack.SeqNo != 88 || nacks[0].pkt.to != "origin" {
		t.Errorf("nack = %+v to %s", nack, nacks[0].pkt.to)
	}
}

func TestRelayWithoutWantNackStaysQuiet(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("origin", 1)
	h.addMember("target", 1)
	h.unresponsive["target"] = true
	h.clearSent()
	h.inject("origin", &wire.IndirectPing{SeqNo: 99, Target: "target", Source: "origin", WantNack: false})
	h.run(time.Second)
	if len(h.sentOfType(wire.TypeNack)) != 0 {
		t.Error("nack sent although not requested")
	}
}

func TestPingReplyCarriesAck(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.clearSent()
	h.inject("m1", &wire.Ping{SeqNo: 5, Target: "self", Source: "m1"})
	acks := h.sentOfType(wire.TypeAck)
	if len(acks) != 1 {
		t.Fatalf("got %d acks", len(acks))
	}
	ack := acks[0].msg.(*wire.Ack)
	if ack.SeqNo != 5 || ack.Source != "self" || acks[0].pkt.to != "m1" {
		t.Errorf("ack = %+v to %s", ack, acks[0].pkt.to)
	}
}

func TestMisdirectedPingRefused(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.clearSent()
	h.inject("m1", &wire.Ping{SeqNo: 5, Target: "somebody-else", Source: "m1"})
	if len(h.sentOfType(wire.TypeAck)) != 0 {
		t.Error("acked a probe for a different member")
	}
}

func TestLHMScalesProbeInterval(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.unresponsive["m1"] = true // every probe fails, LHM climbs
	h.clearSent()

	// At saturation (S=8) the probe interval reaches 9 s. Count probe
	// rounds in a 60-second window: with backoff the count must be far
	// below 60.
	h.run(60 * time.Second)
	probes := h.sink.Get(metrics.CounterProbes)
	if probes >= 40 {
		t.Errorf("%d probe rounds in 60s; LHA backoff not engaged", probes)
	}
	if got := h.node.HealthScore(); got < 6 {
		t.Errorf("LHM = %d, want near saturation", got)
	}
}

func TestSWIMProbeIntervalFixedUnderFailures(t *testing.T) {
	h := newHarness(t, func(cfg *Config) { cfg.LHAProbe = false })
	h.addMember("m1", 1)
	h.unresponsive["m1"] = true
	h.clearSent()
	h.run(30 * time.Second)
	probes := h.sink.Get(metrics.CounterProbes)
	if probes < 28 {
		t.Errorf("%d probe rounds in 30s; SWIM must not back off", probes)
	}
	if got := h.node.HealthScore(); got != 0 {
		// The counter exists but is never charged without LHA-Probe.
		t.Errorf("LHM = %d under SWIM config", got)
	}
}

// --- Buddy System ---

func TestBuddyForceIncludesSuspicionOnPing(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "x"})
	// Exhaust the broadcast queue so only the buddy path can supply the
	// suspect message.
	h.drainQueue()
	h.clearSent()

	h.run(3 * time.Second) // probe m1 at least once

	foundBuddy := false
	for _, pkt := range h.sent {
		if pkt.to != "m1" {
			continue
		}
		hasPing, hasSuspect := false, false
		for _, m := range pkt.msgs {
			switch mm := m.(type) {
			case *wire.Ping:
				hasPing = true
			case *wire.Suspect:
				if mm.Node == "m1" {
					hasSuspect = true
				}
			}
		}
		if hasPing && hasSuspect {
			foundBuddy = true
		}
	}
	if !foundBuddy {
		t.Fatal("ping to suspected member did not carry the suspicion")
	}
}

func TestNoBuddyWithoutComponent(t *testing.T) {
	h := newHarness(t, func(cfg *Config) { cfg.BuddySystem = false })
	h.addMember("m1", 1)
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "x"})
	h.drainQueue()
	h.clearSent()
	h.run(3 * time.Second)

	for _, pkt := range h.sent {
		if pkt.to != "m1" {
			continue
		}
		for _, m := range pkt.msgs {
			if s, ok := m.(*wire.Suspect); ok && s.Node == "m1" {
				t.Fatal("suspicion piggybacked without Buddy System")
			}
		}
	}
}

func TestBuddyOnRelayedPing(t *testing.T) {
	// The buddy guarantee covers pings sent on behalf of others too
	// (§IV-C: "either on its own behalf, or for the indirect path").
	h := newHarness(t, nil)
	h.addMember("origin", 1)
	h.addMember("m1", 1)
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "x"})
	h.drainQueue()
	h.clearSent()

	h.inject("origin", &wire.IndirectPing{SeqNo: 7, Target: "m1", Source: "origin", WantNack: true})
	found := false
	for _, pkt := range h.sent {
		if pkt.to != "m1" {
			continue
		}
		for _, m := range pkt.msgs {
			if s, ok := m.(*wire.Suspect); ok && s.Node == "m1" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("relayed ping did not carry the suspicion")
	}
}

// --- Anomaly deferral (Blocked / Wake) ---

func TestBlockedProbeRoundFailsAtWake(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.clearSent()

	h.blocked = true
	h.run(10 * time.Second) // several ticks while blocked: rounds coalesce
	if got := len(h.sentOfType(wire.TypePing)); got != 0 {
		t.Fatalf("%d pings escaped a blocked member", got)
	}
	h.blocked = false
	h.node.Wake()
	// The resumed round's deadlines are long past: the target is
	// suspected immediately, before its ack can be processed.
	if got := h.state("m1").State; got != StateSuspect {
		t.Fatalf("state = %v at wake, want suspect (stale round)", got)
	}
	// And the stale ping did go out at wake.
	if got := len(h.sentOfType(wire.TypePing)); got == 0 {
		t.Error("blocked ping never flushed")
	}
}

func TestBlockedTicksCoalesceToOneRound(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.addMember("m2", 1)
	h.clearSent()

	h.blocked = true
	h.run(20 * time.Second)
	h.blocked = false
	h.node.Wake()

	// Exactly one stale round resumed (one direct ping target).
	pings := h.sentOfType(wire.TypePing)
	direct := 0
	for _, p := range pings {
		if !p.pkt.reliable {
			direct++
		}
	}
	if direct != 1 {
		t.Fatalf("%d direct pings at wake, want 1 (ticker coalescing)", direct)
	}
}

func TestSuspicionTimerFiresWhileBlocked(t *testing.T) {
	// The load-bearing fidelity rule: suspicion expiry only touches
	// local state, so it runs even while the member is blocked.
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "x"})
	h.blocked = true
	h.run(31 * time.Second) // past Max (30s at n=2)
	if got := h.state("m1").State; got != StateDead {
		t.Fatalf("state = %v; suspicion timer must fire during a block", got)
	}
}

func TestGossipDeferredWhileBlocked(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.blocked = true
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "x"})
	h.clearSent()
	h.run(5 * time.Second)
	if len(h.sent) != 0 {
		t.Fatalf("blocked member sent %d packets", len(h.sent))
	}
	h.blocked = false
	h.node.Wake()
	if len(h.sentOfType(wire.TypeSuspect)) == 0 {
		t.Error("suspicion did not escape at wake")
	}
}

// TestBlockedLoopsHoldOneRound pins each protocol loop's rule while its
// member is blocked: nothing leaves during the block, and however many
// ticks were missed, Wake releases at most one round per loop
// (holdLocked). The probe round starts at its tick and only its ping
// waits; gossip and push-pull hold their whole round; a reconnect is
// skipped, not held.
func TestBlockedLoopsHoldOneRound(t *testing.T) {
	h := newHarness(t, nil)
	for _, name := range []string{"m1", "m2", "m3"} {
		h.addMember(name, 1)
	}
	// m3's death gives the reconnect loop a target; the queued news
	// gives the gossip loop something to send.
	h.inject("x", &wire.Dead{Incarnation: 1, Node: "m3", From: "x"})
	h.clearSent()
	carries := func(p sentPacket, t wire.MsgType) bool {
		for _, m := range p.msgs {
			if m.Type() == t {
				return true
			}
		}
		return false
	}
	loops := []struct {
		name   string
		sent   func(sentPacket) bool // the loop's packets
		atWake int
	}{
		{"probe", func(p sentPacket) bool { return carries(p, wire.TypePing) && !p.reliable }, 1},
		// One round: a packet to each of m1 and m2, the only members
		// gossip reaches at wake.
		{"gossip", func(p sentPacket) bool {
			return !carries(p, wire.TypePing) && !carries(p, wire.TypeIndirectPing) && !carries(p, wire.TypePushPullReq)
		}, 2},
		{"push-pull", func(p sentPacket) bool { return carries(p, wire.TypePushPullReq) && p.to != "m3" }, 1},
		{"reconnect", func(p sentPacket) bool { return carries(p, wire.TypePushPullReq) && p.to == "m3" }, 0},
	}
	count := func(sent func(sentPacket) bool) int {
		k := 0
		for _, p := range h.sent {
			if sent(p) {
				k++
			}
		}
		return k
	}

	h.blocked = true
	h.run(90 * time.Second) // three push-pull and reconnect periods
	for _, l := range loops {
		if got := count(l.sent); got != 0 {
			t.Errorf("%s: %d packets left a blocked member", l.name, got)
		}
	}
	if got := h.sink.Get(metrics.CounterProbes); got != 1 {
		t.Errorf("probe: %d rounds started while blocked, want 1 (at the first tick)", got)
	}
	h.blocked = false
	h.node.Wake()
	for _, l := range loops {
		if got := count(l.sent); got != l.atWake {
			t.Errorf("%s: %d packets at wake, want %d", l.name, got, l.atWake)
		}
	}
	if len(h.sentOfType(wire.TypeDead)) == 0 {
		t.Error("m3's death, queued before the block, did not leave at wake")
	}
}
