package core

import (
	"fmt"
	"testing"
	"time"

	"lifeguard/internal/telemetry"
	"lifeguard/internal/wire"
)

// --- SWIM §4.2 message precedence, implemented in state.go ---

func TestAliveAddsNewMember(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)

	m := h.state("m1")
	if m.State != StateAlive || m.Incarnation != 1 {
		t.Fatalf("m1 = %+v", m)
	}
	if h.node.NumAlive() != 2 {
		t.Errorf("alive count = %d", h.node.NumAlive())
	}
	if len(h.events) != 1 || h.events[0] != "join:m1" {
		t.Errorf("events = %v", h.events)
	}
}

func TestAliveNewerIncarnationUpdates(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.addMember("m1", 5)
	if got := h.state("m1").Incarnation; got != 5 {
		t.Errorf("incarnation = %d", got)
	}
}

func TestAliveStaleIncarnationIgnored(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 5)
	h.addMember("m1", 3)
	if got := h.state("m1").Incarnation; got != 5 {
		t.Errorf("incarnation regressed to %d", got)
	}
}

func TestSuspectRequiresKnownMember(t *testing.T) {
	h := newHarness(t, nil)
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "stranger", From: "x"})
	if _, ok := h.node.Member("stranger"); ok {
		t.Error("suspect created a member out of thin air")
	}
}

func TestSuspectMarksAliveMember(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.clearSent()

	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "x"})
	if got := h.state("m1").State; got != StateSuspect {
		t.Fatalf("state = %v", got)
	}
	// The suspicion is re-gossiped (dissemination), with the original
	// accuser preserved.
	var found bool
	h.run(time.Second) // let a gossip tick drain the queue
	for _, s := range h.sentOfType(wire.TypeSuspect) {
		sus := s.msg.(*wire.Suspect)
		if sus.Node == "m1" && sus.From == "x" {
			found = true
		}
	}
	if !found {
		t.Error("received suspicion not re-gossiped with original accuser")
	}
}

func TestSuspectAtEqualIncarnationApplies(t *testing.T) {
	// SWIM §4.2: suspect overrides alive at the same incarnation.
	h := newHarness(t, nil)
	h.addMember("m1", 3)
	h.inject("x", &wire.Suspect{Incarnation: 3, Node: "m1", From: "x"})
	if got := h.state("m1").State; got != StateSuspect {
		t.Errorf("state = %v", got)
	}
}

func TestSuspectStaleIncarnationIgnored(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 5)
	h.inject("x", &wire.Suspect{Incarnation: 4, Node: "m1", From: "x"})
	if got := h.state("m1").State; got != StateAlive {
		t.Errorf("stale suspect applied: %v", got)
	}
}

func TestAliveEqualIncarnationDoesNotRefuteSuspicion(t *testing.T) {
	// Only a strictly newer incarnation clears suspicion (SWIM §4.2).
	h := newHarness(t, nil)
	h.addMember("m1", 3)
	h.inject("x", &wire.Suspect{Incarnation: 3, Node: "m1", From: "x"})
	h.addMember("m1", 3)
	if got := h.state("m1").State; got != StateSuspect {
		t.Errorf("equal-incarnation alive cleared suspicion: %v", got)
	}
}

func TestAliveNewerIncarnationRefutesSuspicion(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 3)
	h.inject("x", &wire.Suspect{Incarnation: 3, Node: "m1", From: "x"})
	h.addMember("m1", 4)
	if got := h.state("m1").State; got != StateAlive {
		t.Fatalf("refutation ignored: %v", got)
	}
	// The suspicion timer must be dead: no dead event later.
	h.run(5 * time.Minute)
	if got := h.state("m1").State; got != StateAlive {
		t.Errorf("suspicion timer survived refutation: %v", got)
	}
	want := []string{"join:m1", "suspect:m1", "alive:m1"}
	if len(h.events) != len(want) {
		t.Fatalf("events = %v", h.events)
	}
	for i := range want {
		if h.events[i] != want[i] {
			t.Fatalf("events = %v, want %v", h.events, want)
		}
	}
}

func TestSuspicionExpiresToDead(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "x"})
	// n = 2 alive: Min = 5·max(1, log10(2))·1s = 5s; β=6 → Max = 30s.
	h.run(31 * time.Second)
	if got := h.state("m1").State; got != StateDead {
		t.Fatalf("state = %v after suspicion timeout", got)
	}
	// Dead is re-gossiped.
	h.run(time.Second)
	if len(h.sentOfType(wire.TypeDead)) == 0 {
		t.Error("death not gossiped")
	}
}

func TestLHASuspicionConfirmationsShrinkTimeout(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	for _, name := range []string{"m2", "m3", "m4"} {
		h.addMember(name, 1)
	}
	// n = 5 alive → Min = 5s, Max = 30s (log10(5) < 1 clamps to 1).
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "m2"})
	// K=3 independent confirmations drive the timeout to Min.
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "m3"})
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "m4"})
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "m5"})

	h.run(6 * time.Second)
	if got := h.state("m1").State; got != StateDead {
		t.Errorf("state = %v at Min+1s with K confirmations", got)
	}
}

func TestSWIMConfigHasFixedTimeout(t *testing.T) {
	h := newHarness(t, func(cfg *Config) {
		swim := SWIMConfig("self")
		swim.Clock, swim.Transport, swim.RNG = cfg.Clock, cfg.Transport, cfg.RNG
		swim.Events, swim.Metrics, swim.Blocked = cfg.Events, cfg.Metrics, cfg.Blocked
		*cfg = *swim
	})
	h.addMember("m1", 1)
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "x"})
	// Fixed timeout = Min = 5s; must be dead shortly after, regardless
	// of zero confirmations.
	h.run(6 * time.Second)
	if got := h.state("m1").State; got != StateDead {
		t.Errorf("state = %v at fixed timeout + 1s", got)
	}
}

func TestDuplicateAccuserDoesNotConfirm(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "m9"})
	for i := 0; i < 10; i++ {
		h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "m9"})
	}
	// Timeout must still be Max (30s for n=2): not dead at 20s.
	h.run(20 * time.Second)
	if got := h.state("m1").State; got != StateSuspect {
		t.Errorf("state = %v; duplicate accusers must not shrink the timeout", got)
	}
}

// TestConfirmingAccusationsRegossip pins which accusations about an
// already-suspected member are queued for re-gossip: under LHA-Suspicion
// each of the first K independent ones (§IV-B), under SWIM none, and a
// duplicate accuser never.
func TestConfirmingAccusationsRegossip(t *testing.T) {
	for _, tc := range []struct {
		name         string
		lhaSuspicion bool
		regossiped   int // independent accusers after the opening one
	}{
		{"SWIM", false, 0},
		{"LHA-Suspicion", true, suspicionK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, func(cfg *Config) { cfg.LHASuspicion = tc.lhaSuspicion })
			h.addMember("m1", 1)
			queued := func(from string) bool {
				h.drainQueue()
				h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: from})
				return h.node.queue.Len() > 0
			}
			if !queued("a0") {
				t.Fatal("opening accusation not queued")
			}
			for i := 1; i <= suspicionK+1; i++ {
				from := fmt.Sprintf("a%d", i)
				if got, want := queued(from), i <= tc.regossiped; got != want {
					t.Errorf("independent accusation %d queued = %v, want %v", i, got, want)
				}
				if queued(from) {
					t.Errorf("duplicate of accusation %d queued", i)
				}
			}
		})
	}
}

// TestDeathRecordsSuspicionLifecycle pins the telemetry of a death: a
// suspected member declared dead closes one suspicion lifecycle, marked
// died; an alive member declared dead directly was never suspected, so
// it records none.
func TestDeathRecordsSuspicionLifecycle(t *testing.T) {
	rec, err := telemetry.NewNodeRecorder(telemetry.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, func(cfg *Config) { cfg.Telemetry = rec })
	h.addMember("suspected", 1)
	h.addMember("alive", 1)
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "suspected", From: "x"})
	h.inject("x", &wire.Dead{Incarnation: 1, Node: "suspected", From: "x"})
	h.inject("x", &wire.Dead{Incarnation: 1, Node: "alive", From: "x"})

	snap := rec.Snapshot()
	if snap.Suspicion.Count != 1 {
		t.Errorf("%d suspicion lifecycles recorded, want 1", snap.Suspicion.Count)
	}
	peers := map[string]telemetry.PeerSnapshot{}
	for _, p := range snap.Peers {
		peers[p.Peer] = p
	}
	if p := peers["suspected"]; p.Suspicions != 1 || p.Deaths != 1 {
		t.Errorf("suspected → dead: %d suspicions, %d deaths, want 1 and 1", p.Suspicions, p.Deaths)
	}
	if p := peers["alive"]; p.Suspicions != 0 || p.Deaths != 0 {
		t.Errorf("alive → dead: %d suspicions, %d deaths, want none", p.Suspicions, p.Deaths)
	}
}

func TestDeadMessageAppliesAndRetains(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("x", &wire.Dead{Incarnation: 1, Node: "m1", From: "x"})
	m := h.state("m1")
	if m.State != StateDead {
		t.Fatalf("state = %v", m.State)
	}
	if h.node.NumAlive() != 1 {
		t.Errorf("alive count = %d", h.node.NumAlive())
	}
	// Retained for push-pull: still in Members().
	found := false
	for _, mm := range h.node.Members() {
		if mm.Name == "m1" {
			found = true
		}
	}
	if !found {
		t.Error("dead member dropped from the table")
	}
}

func TestDeadOverridesSuspectAtEqualIncarnation(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 2)
	h.inject("x", &wire.Suspect{Incarnation: 2, Node: "m1", From: "x"})
	h.inject("x", &wire.Dead{Incarnation: 2, Node: "m1", From: "x"})
	if got := h.state("m1").State; got != StateDead {
		t.Errorf("state = %v", got)
	}
}

func TestDeadStaleIncarnationIgnored(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 5)
	h.inject("x", &wire.Dead{Incarnation: 4, Node: "m1", From: "x"})
	if got := h.state("m1").State; got != StateAlive {
		t.Errorf("stale dead applied: %v", got)
	}
}

func TestAliveNewerRevivesDeadMember(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("x", &wire.Dead{Incarnation: 1, Node: "m1", From: "x"})
	h.addMember("m1", 2)
	if got := h.state("m1").State; got != StateAlive {
		t.Fatalf("state = %v", got)
	}
	// dead → alive fires a join, not a refute.
	last := h.events[len(h.events)-1]
	if last != "join:m1" {
		t.Errorf("last event = %v", last)
	}
}

// TestAliveAtNewAddressFiresUpdate: a newer alive that moves an alive
// member to a new address is an update; one at the address already
// held is not; and a dead member revived at a new address joins.
func TestAliveAtNewAddressFiresUpdate(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("m1", &wire.Alive{Incarnation: 2, Node: "m1", Addr: "m1-moved"})
	if got := h.state("m1").Addr; got != "m1-moved" {
		t.Errorf("addr = %q, want m1-moved", got)
	}
	h.inject("m1", &wire.Alive{Incarnation: 3, Node: "m1", Addr: "m1-moved"})
	if want := []string{"join:m1", "update:m1"}; fmt.Sprint(h.events) != fmt.Sprint(want) {
		t.Errorf("events = %v, want %v", h.events, want)
	}

	h = newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("x", &wire.Dead{Incarnation: 1, Node: "m1", From: "x"})
	h.inject("m1", &wire.Alive{Incarnation: 2, Node: "m1", Addr: "m1-moved"})
	if want := []string{"join:m1", "dead:m1", "join:m1"}; fmt.Sprint(h.events) != fmt.Sprint(want) {
		t.Errorf("revived at a new address: events = %v, want %v", h.events, want)
	}
	if got := h.state("m1").Addr; got != "m1-moved" {
		t.Errorf("revived addr = %q, want m1-moved", got)
	}
}

func TestSelfSuspectTriggersRefutation(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.clearSent()

	before := h.node.Incarnation()
	h.inject("m1", &wire.Suspect{Incarnation: before, Node: "self", From: "m1"})
	after := h.node.Incarnation()
	if after != before+1 {
		t.Fatalf("incarnation %d → %d, want +1", before, after)
	}
	// A fresh alive broadcast must be queued; let gossip flush it.
	h.run(time.Second)
	found := false
	for _, s := range h.sentOfType(wire.TypeAlive) {
		a := s.msg.(*wire.Alive)
		if a.Node == "self" && a.Incarnation == after {
			found = true
		}
	}
	if !found {
		t.Error("refuting alive not gossiped")
	}
	// Refuting charges local health (+1).
	if got := h.node.HealthScore(); got != 1 {
		t.Errorf("LHM = %d, want 1", got)
	}
}

func TestSelfDeadTriggersRefutation(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	before := h.node.Incarnation()
	h.inject("m1", &wire.Dead{Incarnation: before, Node: "self", From: "m1"})
	if got := h.node.Incarnation(); got != before+1 {
		t.Errorf("incarnation %d, want %d", got, before+1)
	}
}

func TestStaleSelfAccusationNotRefuted(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("m1", &wire.Suspect{Incarnation: 0, Node: "self", From: "m1"})
	// Claimed incarnation 0 < current 1: existing alive already refutes.
	if got := h.node.Incarnation(); got != 1 {
		t.Errorf("incarnation bumped to %d for a stale accusation", got)
	}
}

func TestRefutationJumpsPastClaimedIncarnation(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	// An accusation claiming a future incarnation (e.g. replayed through
	// several refutation rounds) must be jumped past, not incremented.
	h.inject("m1", &wire.Suspect{Incarnation: 7, Node: "self", From: "m1"})
	if got := h.node.Incarnation(); got != 8 {
		t.Errorf("incarnation = %d, want 8", got)
	}
}

func TestLeaveAnnouncesSelfDead(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.clearSent()
	h.node.Leave()
	h.run(time.Second)

	found := false
	for _, s := range h.sentOfType(wire.TypeDead) {
		d := s.msg.(*wire.Dead)
		if d.Node == "self" && d.From == "self" {
			found = true
		}
	}
	if !found {
		t.Fatal("leave did not gossip a self-dead")
	}
	// While leaving, a dead about self is not refuted.
	inc := h.node.Incarnation()
	h.inject("m1", &wire.Dead{Incarnation: inc, Node: "self", From: "m1"})
	if got := h.node.Incarnation(); got != inc {
		t.Error("leaving node refuted its own death")
	}
}

func TestSelfLeftStateIsLeft(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	// A dead message From == Node means graceful leave.
	h.inject("x", &wire.Dead{Incarnation: 1, Node: "m1", From: "m1"})
	if got := h.state("m1").State; got != StateLeft {
		t.Errorf("state = %v, want left", got)
	}
}

// TestLeaveReplacesHeldDead: a view that declared a member dead and
// later hears the member's own leave (by gossip or in a push-pull table)
// at the same or a newer incarnation converges on left, once, without a
// second dead event; a stale leave and a third-party dead over left
// change nothing.
func TestLeaveReplacesHeldDead(t *testing.T) {
	leaves := map[string]func(h *harness, inc uint64){
		"gossip": func(h *harness, inc uint64) {
			h.inject("m1", &wire.Dead{Incarnation: inc, Node: "m1", From: "m1"})
		},
		"push-pull": func(h *harness, inc uint64) {
			h.inject("peer", &wire.PushPullResp{Source: "peer", States: []wire.PushPullState{
				{Name: "m1", Addr: "m1", Incarnation: inc, State: uint8(StateLeft)},
			}})
		},
	}
	for name, leave := range leaves {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, nil)
			h.addMember("m1", 2)
			h.addMember("x", 1)
			h.inject("x", &wire.Dead{Incarnation: 2, Node: "m1", From: "x"})
			alive, events := h.node.NumAlive(), len(h.events)

			leave(h, 1) // older than the held death
			if got := h.state("m1"); got.State != StateDead || got.Incarnation != 2 {
				t.Fatalf("stale leave applied: %v@%d", got.State, got.Incarnation)
			}

			h.clearSent()
			leave(h, 2) // the same incarnation is enough
			if got := h.state("m1"); got.State != StateLeft || got.Incarnation != 2 {
				t.Fatalf("after leave: %v@%d, want left@2", got.State, got.Incarnation)
			}
			if h.node.NumAlive() != alive || len(h.events) != events {
				t.Errorf("dead → left moved the alive count (%d → %d) or fired events %v",
					alive, h.node.NumAlive(), h.events[events:])
			}
			h.run(time.Second)
			regossiped := false
			for _, s := range h.sentOfType(wire.TypeDead) {
				if d := s.msg.(*wire.Dead); d.Node == "m1" && d.From == "m1" && d.Incarnation == 2 {
					regossiped = true
				}
			}
			if !regossiped {
				t.Error("the leave that replaced a held dead was not re-gossiped")
			}

			h.inject("x", &wire.Dead{Incarnation: 3, Node: "m1", From: "x"})
			if got := h.state("m1"); got.State != StateLeft || got.Incarnation != 2 {
				t.Fatalf("left downgraded by a third-party dead: %v@%d", got.State, got.Incarnation)
			}
		})
	}
}

func TestEventSequenceOnFalseDeathAndRecovery(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "x"})
	h.run(31 * time.Second) // expire (n=2: max 30s)
	h.addMember("m1", 2)    // refutation arrives too late; member revives

	want := []string{"join:m1", "suspect:m1", "dead:m1", "join:m1"}
	if len(h.events) != len(want) {
		t.Fatalf("events = %v, want %v", h.events, want)
	}
	for i := range want {
		if h.events[i] != want[i] {
			t.Fatalf("events = %v, want %v", h.events, want)
		}
	}
}

func TestSuspicionRefutedCounterMetric(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.inject("x", &wire.Suspect{Incarnation: 1, Node: "m1", From: "x"})
	h.addMember("m1", 2)
	if got := h.sink.Get("suspicions_refuted"); got != 1 {
		t.Errorf("suspicions_refuted = %d", got)
	}
	if got := h.sink.Get("suspicions_raised"); got != 1 {
		t.Errorf("suspicions_raised = %d", got)
	}
}
