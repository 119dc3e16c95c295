package core

import (
	"fmt"
	"testing"
	"time"

	"lifeguard/internal/wire"
)

func TestJoinSendsPushPullReq(t *testing.T) {
	h := newHarness(t, nil)
	h.clearSent()
	if err := h.node.Join("seed-addr"); err != nil {
		t.Fatal(err)
	}
	reqs := h.sentOfType(wire.TypePushPullReq)
	if len(reqs) != 1 {
		t.Fatalf("sent %d push-pull requests", len(reqs))
	}
	req := reqs[0].msg.(*wire.PushPullReq)
	if !req.Join || req.Source != "self" {
		t.Errorf("req = %+v", req)
	}
	if !reqs[0].pkt.reliable {
		t.Error("push-pull sent unreliably")
	}
	// The local table (just self) travels with the request.
	if len(req.States) != 1 || req.States[0].Name != "self" {
		t.Errorf("states = %+v", req.States)
	}
}

func TestPushPullReqMergesAndResponds(t *testing.T) {
	h := newHarness(t, nil)
	h.clearSent()
	h.inject("peer", &wire.PushPullReq{
		Source: "peer",
		States: []wire.PushPullState{
			{Name: "peer", Addr: "peer", Incarnation: 2, State: uint8(StateAlive)},
			{Name: "m1", Addr: "m1", Incarnation: 1, State: uint8(StateAlive)},
		},
	})
	// Both remote members learned.
	if got := h.state("peer").Incarnation; got != 2 {
		t.Errorf("peer inc = %d", got)
	}
	if got := h.state("m1").State; got != StateAlive {
		t.Errorf("m1 = %v", got)
	}
	// And we answered with our table.
	resps := h.sentOfType(wire.TypePushPullResp)
	if len(resps) != 1 {
		t.Fatalf("sent %d responses", len(resps))
	}
	// The merge happens before the response snapshot, so the response
	// reflects the just-learned members too (self + peer + m1).
	resp := resps[0].msg.(*wire.PushPullResp)
	if resp.Source != "self" || len(resp.States) != 3 {
		t.Errorf("resp = %+v", resp)
	}
	if !resps[0].pkt.reliable {
		t.Error("response sent unreliably")
	}
}

// TestPushPullRespGoesToAdvertisedAddrAfterCrashRejoin pins the
// response addressing for the crash-rejoin race the e2e harness flushed
// out: a member that died and restarted on a new ephemeral address
// sends its join push-pull while our table still holds the dead entry
// at the OLD address (alive@inc cannot displace dead@inc before a
// refutation). The response must go to the address the requester
// advertises for itself in its state table — sending it to the stale
// recorded address strands the rejoiner forever.
func TestPushPullRespGoesToAdvertisedAddrAfterCrashRejoin(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.addMember("m2", 1)
	// m1 crashes and is declared dead at incarnation 1, addr "m1".
	h.inject("m2", &wire.Dead{Incarnation: 1, Node: "m1", From: "m2"})
	if got := h.state("m1"); got.State != StateDead || got.Addr != "m1" {
		t.Fatalf("m1 = %+v, want dead at old addr", got)
	}

	// m1 restarts on a fresh port and joins: same name and incarnation,
	// new advertised address.
	h.clearSent()
	h.inject("m1-new", &wire.PushPullReq{
		Source: "m1",
		Join:   true,
		States: []wire.PushPullState{
			{Name: "m1", Addr: "m1-new", Incarnation: 1, State: uint8(StateAlive)},
		},
	})

	// The dead entry still wins the merge (no refutation yet) ...
	if got := h.state("m1").State; got != StateDead {
		t.Fatalf("m1 = %v after merge, want still dead pending refutation", got)
	}
	// ... but the response is addressed to where the rejoiner actually
	// lives, so it can learn of its own death and refute.
	resps := h.sentOfType(wire.TypePushPullResp)
	if len(resps) != 1 {
		t.Fatalf("sent %d responses", len(resps))
	}
	if got := resps[0].pkt.to; got != "m1-new" {
		t.Errorf("response addressed to %q, want advertised addr \"m1-new\"", got)
	}
}

func TestPushPullMergeRemoteSuspectStartsTimerWithoutConfirming(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	// Merge a remote table holding m1 suspect.
	h.inject("peer", &wire.PushPullResp{
		Source: "peer",
		States: []wire.PushPullState{
			{Name: "m1", Addr: "m1", Incarnation: 1, State: uint8(StateSuspect)},
		},
	})
	if got := h.state("m1").State; got != StateSuspect {
		t.Fatalf("m1 = %v after merge", got)
	}
	// The merged suspicion must not count the peer as an accuser: K=3
	// more gossiped suspicions must be needed to reach Min. With only
	// two more, the timeout must stay above Min (5s at n=2).
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "a1"})
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "a2"})
	h.run(10 * time.Second)
	if got := h.state("m1").State; got == StateDead {
		t.Fatal("merge-seeded suspicion reached Min with only 2 accusers")
	}
}

func TestPushPullMergeDoesNotRebroadcastSuspicion(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.drainQueue()
	h.clearSent()
	h.inject("peer", &wire.PushPullResp{
		Source: "peer",
		States: []wire.PushPullState{
			{Name: "m1", Addr: "m1", Incarnation: 1, State: uint8(StateSuspect)},
		},
	})
	h.run(2 * time.Second) // several gossip ticks
	for _, s := range h.sentOfType(wire.TypeSuspect) {
		// The Buddy System legitimately tells m1 itself about the
		// suspicion; only copies sent to third parties would be
		// accusation re-gossip.
		if s.msg.(*wire.Suspect).Node == "m1" && s.pkt.to != "m1" {
			t.Fatal("anti-entropy merge was re-gossiped as an accusation")
		}
	}
}

func TestPushPullMergeRemoteDeadTreatedAsSuspicion(t *testing.T) {
	// memberlist merges remote dead as a suspicion so a live member can
	// still refute.
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("peer", &wire.PushPullResp{
		Source: "peer",
		States: []wire.PushPullState{
			{Name: "m1", Addr: "m1", Incarnation: 1, State: uint8(StateDead)},
		},
	})
	if got := h.state("m1").State; got != StateSuspect {
		t.Fatalf("m1 = %v, want suspect (refutable)", got)
	}
	// Refutation still wins.
	h.addMember("m1", 2)
	if got := h.state("m1").State; got != StateAlive {
		t.Errorf("m1 = %v after refutation", got)
	}
}

func TestPushPullMergeRemoteLeftIsTerminal(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("peer", &wire.PushPullResp{
		Source: "peer",
		States: []wire.PushPullState{
			{Name: "m1", Addr: "m1", Incarnation: 3, State: uint8(StateLeft)},
		},
	})
	if got := h.state("m1").State; got != StateLeft {
		t.Fatalf("m1 = %v, want left", got)
	}
}

func TestPushPullMergeSuspectAboutSelfRefutes(t *testing.T) {
	h := newHarness(t, nil)
	before := h.node.Incarnation()
	h.inject("peer", &wire.PushPullResp{
		Source: "peer",
		States: []wire.PushPullState{
			{Name: "self", Addr: "self", Incarnation: before, State: uint8(StateSuspect)},
		},
	})
	if got := h.node.Incarnation(); got != before+1 {
		t.Errorf("incarnation = %d, want %d", got, before+1)
	}
}

// TestPushPullMergeUnknownAccusationIgnored: only alive news creates a
// record. A suspect, dead or left entry about a name this view has never
// heard of is dropped — no record, no event, nothing queued for gossip —
// so a joiner does not relearn every member that ever died.
func TestPushPullMergeUnknownAccusationIgnored(t *testing.T) {
	for _, st := range []State{StateSuspect, StateDead, StateLeft} {
		t.Run(st.String(), func(t *testing.T) {
			h := newHarness(t, nil)
			h.drainQueue()
			h.events = nil
			h.inject("peer", &wire.PushPullResp{
				Source: "peer",
				States: []wire.PushPullState{
					{Name: "ghost", Addr: "ghost", Incarnation: 4, State: uint8(st)},
				},
			})
			if m, ok := h.node.Member("ghost"); ok {
				t.Errorf("ghost learned from a %v entry: %+v", st, m)
			}
			if len(h.events) != 0 {
				t.Errorf("events = %v, want none", h.events)
			}
			if got := h.node.queue.Len(); got != 0 {
				t.Errorf("%d broadcasts queued, want none", got)
			}
		})
	}
}

func TestPushPullTickExchangesState(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.clearSent()
	// Push-pull interval is 30s jittered ±1/8.
	h.run(40 * time.Second)
	reqs := h.sentOfType(wire.TypePushPullReq)
	if len(reqs) == 0 {
		t.Fatal("no periodic push-pull")
	}
	if reqs[0].pkt.to != "m1" {
		t.Errorf("push-pull to %s", reqs[0].pkt.to)
	}
}

func TestPushPullStatesIncludeDead(t *testing.T) {
	// Dead-member retention: the table carries dead entries so failure
	// knowledge survives partitions (§III-B).
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("x", &wire.Dead{Incarnation: 1, Node: "m1", From: "x"})
	h.clearSent()
	h.inject("peer", &wire.PushPullReq{Source: "peer", States: nil})
	resps := h.sentOfType(wire.TypePushPullResp)
	if len(resps) != 1 {
		t.Fatal("no response")
	}
	var foundDead bool
	for _, s := range resps[0].msg.(*wire.PushPullResp).States {
		if s.Name == "m1" && State(s.State) == StateDead {
			foundDead = true
		}
	}
	if !foundDead {
		t.Error("dead member missing from push-pull table")
	}
}

// TestGossipPiggybackRespectsMTU queues more broadcasts than one packet
// holds, so the wire.MTU budget binds on every gossip and piggyback
// packet, and checks that none exceeds it.
func TestGossipPiggybackRespectsMTU(t *testing.T) {
	h := newHarness(t, nil)
	for i := 0; i < 100; i++ {
		name := nodeName(i)
		h.inject(name, &wire.Alive{Incarnation: 1, Node: name, Addr: fmt.Sprintf("10.0.%d.%d:7946", i/10, i%10)})
	}
	h.clearSent()
	h.run(5 * time.Second)
	largest := 0
	for _, pkt := range h.sent {
		largest = max(largest, len(wire.EncodePacket(pkt.msgs)))
	}
	if largest > wire.MTU {
		t.Fatalf("packet of %d bytes exceeds MTU %d", largest, wire.MTU)
	}
	if largest < wire.MTU*3/4 {
		t.Fatalf("largest packet is %d bytes: the MTU budget never bound", largest)
	}
}

func nodeName(i int) string {
	return string([]byte{'m', byte('0' + i/10), byte('0' + i%10)})
}

func TestGossipToTheRecentlyDead(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("x", &wire.Dead{Incarnation: 1, Node: "m1", From: "x"})
	h.clearSent()

	// Keep the queue non-empty and count gossip packets to the dead
	// member: within the retention window it must receive some.
	sawDead := false
	for i := 0; i < 20; i++ {
		h.inject("x", &wire.Alive{Incarnation: uint64(i + 2), Node: "filler", Addr: "filler"})
		h.run(time.Second)
		for _, pkt := range h.sent {
			if pkt.to == "m1" {
				sawDead = true
			}
		}
	}
	if !sawDead {
		t.Error("dead member received no gossip within the retention window")
	}
}
