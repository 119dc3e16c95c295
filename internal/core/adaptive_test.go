package core

import (
	"testing"
	"time"

	"lifeguard/internal/wire"
)

// warmPeer answers coordMinSamples probe pings to peer with acks
// carrying a valid peer coordinate after rtt of virtual time: one RTT
// observation per round, exactly what takes the node's Vivaldi engine
// past its cold-start gate. autoAck must be off, and peer should be the
// only member (an unanswered probe of another would stretch the rounds).
func warmPeer(h *harness, peer string, rtt time.Duration) {
	h.t.Helper()
	const rounds = coordMinSamples
	peerCoord := h.node.Coordinate()
	if peerCoord == nil {
		h.t.Fatal("coordinates unexpectedly disabled")
	}
	peerCoord.Error = 0.1
	answered := 0
	for step := 0; answered < rounds; step++ {
		if step > 200*rounds {
			h.t.Fatalf("answered only %d of %d probe rounds", answered, rounds)
		}
		h.run(10 * time.Millisecond)
		for _, s := range h.sentOfType(wire.TypePing) {
			ping := s.msg.(*wire.Ping)
			if ping.Target != peer {
				continue
			}
			seq := ping.SeqNo
			h.sched.Schedule(rtt, func() {
				h.inject(peer, &wire.Ack{SeqNo: seq, Source: peer, Coord: peerCoord})
			})
			answered++
		}
		h.clearSent()
	}
	h.run(2 * rtt) // let the last ack land
	h.node.mu.Lock()
	warm := h.node.coordWarmLocked()
	h.node.mu.Unlock()
	if !warm {
		h.t.Fatalf("engine still cold after %d answered rounds", rounds)
	}
}

// TestAdaptiveTimeoutColdFallsBack: with TopologyAware enabled
// but no RTT observations applied, probe rounds use the static timeout
// and the fallback counter accounts for them.
func TestAdaptiveTimeoutColdFallsBack(t *testing.T) {
	h := newHarness(t, func(cfg *Config) { cfg.TopologyAware = true })
	h.addMember("peer-1", 1)

	if got, want := h.node.EffectiveProbeTimeout("peer-1"), h.node.Config().ProbeTimeout; got != want {
		t.Fatalf("cold effective timeout = %v, want static %v", got, want)
	}
	h.run(3 * h.node.Config().ProbeInterval)
	if h.sink.Get("adaptive_timeouts") != 0 {
		t.Error("cold node took adaptive timeouts")
	}
	if h.sink.Get("adaptive_timeout_fallbacks") == 0 {
		t.Error("cold fallbacks not accounted")
	}
}

// TestAdaptiveTimeoutWarmClampsToFloor: a near-zero RTT estimate clamps
// the adaptive timeout at adaptiveTimeoutFloor rather than producing a
// degenerate deadline.
func TestAdaptiveTimeoutWarmClampsToFloor(t *testing.T) {
	h := newHarness(t, func(cfg *Config) { cfg.TopologyAware = true })
	h.addMember("peer-1", 1)
	h.autoAck = false
	warmPeer(h, "peer-1", time.Millisecond)

	got := h.node.EffectiveProbeTimeout("peer-1")
	cfg := h.node.Config()
	if got != adaptiveTimeoutFloor {
		est, ok := h.node.EstimateRTT("peer-1")
		t.Fatalf("effective timeout = %v (estimate %v ok=%v), want floor %v", got, est, ok, adaptiveTimeoutFloor)
	}
	h.run(cfg.ProbeInterval) // one more round, now adaptive
	if h.sink.Get("adaptive_timeouts") == 0 {
		t.Error("warm adaptive rounds not accounted")
	}
}

// TestAdaptiveTimeoutClampsToCeiling: an estimate far beyond the static
// timeout clamps at ProbeTimeout — adaptive rounds never wait longer
// than the configured worst case.
func TestAdaptiveTimeoutClampsToCeiling(t *testing.T) {
	h := newHarness(t, func(cfg *Config) { cfg.TopologyAware = true })
	h.addMember("peer-1", 1)
	h.autoAck = false
	warmPeer(h, "peer-1", time.Millisecond)
	h.addMember("far", 1)

	// Cache a coordinate a full second away for "far": 3·1s + slack
	// would exceed the 500 ms static timeout by far.
	farCoord := h.node.Coordinate()
	farCoord.Vec[0] = 1.0
	h.inject("far", &wire.Ping{SeqNo: 99, Target: "self", Source: "far", Coord: farCoord})

	est, ok := h.node.EstimateRTT("far")
	if !ok || est < 500*time.Millisecond {
		t.Fatalf("estimate to far = %v ok=%v, want ≥ 500ms", est, ok)
	}
	if got, want := h.node.EffectiveProbeTimeout("far"), h.node.Config().ProbeTimeout; got != want {
		t.Fatalf("effective timeout = %v, want ceiling %v", got, want)
	}
}

// TestAdaptiveTimeoutComposesWithAwareness: the LHM multiplier scales
// the adaptive timeout exactly as it scales the static one (§IV-A on
// top of the RTT-derived value).
func TestAdaptiveTimeoutComposesWithAwareness(t *testing.T) {
	h := newHarness(t, func(cfg *Config) { cfg.TopologyAware = true })
	h.addMember("peer-1", 1)
	h.autoAck = false
	warmPeer(h, "peer-1", time.Millisecond)

	base := h.node.EffectiveProbeTimeout("peer-1")
	if base != adaptiveTimeoutFloor {
		t.Fatalf("unexpected base timeout %v", base)
	}

	// Refuting accusations about ourselves charges the LHM.
	h.inject("accuser", &wire.Suspect{Incarnation: h.node.Incarnation(), Node: "self", From: "accuser"})
	h.inject("accuser", &wire.Suspect{Incarnation: h.node.Incarnation(), Node: "self", From: "accuser"})
	score := h.node.HealthScore()
	if score == 0 {
		t.Fatal("refutes did not raise the health score")
	}
	want := base * time.Duration(score+1)
	if got := h.node.EffectiveProbeTimeout("peer-1"); got != want {
		t.Fatalf("LHM %d: effective timeout = %v, want %v", score, got, want)
	}
}

// TestAdaptiveTimeoutStaleAfterDeath: a member's death drops its cached
// coordinate, so probes against a returned member fall back to the
// static timeout instead of trusting a stale estimate.
func TestAdaptiveTimeoutStaleAfterDeath(t *testing.T) {
	h := newHarness(t, func(cfg *Config) { cfg.TopologyAware = true })
	h.addMember("peer-1", 1)
	h.autoAck = false
	warmPeer(h, "peer-1", time.Millisecond)
	if h.node.EffectiveProbeTimeout("peer-1") == h.node.Config().ProbeTimeout {
		t.Fatal("expected an adaptive timeout before the death")
	}

	h.inject("other", &wire.Dead{Incarnation: 1, Node: "peer-1", From: "other"})
	h.addMember("peer-1", 2) // rejoins at a fresh incarnation
	if m := h.state("peer-1"); m.State != StateAlive {
		t.Fatalf("peer-1 is %v after rejoin", m.State)
	}
	if got, want := h.node.EffectiveProbeTimeout("peer-1"), h.node.Config().ProbeTimeout; got != want {
		t.Fatalf("effective timeout after death+rejoin = %v, want static %v", got, want)
	}
}

// TestAdaptiveRoundClosesEarly: with a warm estimate, an unanswered
// probe round's suspicion decision lands at adaptiveRoundMult × the
// adaptive timeout instead of waiting the full protocol period.
func TestAdaptiveRoundClosesEarly(t *testing.T) {
	for _, adaptive := range []bool{true, false} {
		h := newHarness(t, func(cfg *Config) {
			cfg.TopologyAware = adaptive
		})
		h.addMember("peer-1", 1)
		h.autoAck = false
		warmPeer(h, "peer-1", time.Millisecond)

		// Catch the next probe round and stop answering.
		var started bool
		for i := 0; i < 200 && !started; i++ {
			h.run(10 * time.Millisecond)
			for _, s := range h.sentOfType(wire.TypePing) {
				if s.msg.(*wire.Ping).Target == "peer-1" && !s.pkt.reliable {
					started = true
				}
			}
			h.clearSent()
		}
		if !started {
			t.Fatal("no probe round started")
		}
		// The adaptive deadline is 3×20 ms = 60 ms; the static period is
		// 1 s. 500 ms after the round started, only the adaptive round
		// has decided.
		h.run(500 * time.Millisecond)
		state := h.state("peer-1").State
		if adaptive && state != StateSuspect {
			t.Errorf("adaptive round: peer-1 is %v 500ms in, want suspect", state)
		}
		if !adaptive && state != StateAlive {
			t.Errorf("static round: peer-1 is %v 500ms in, want still alive", state)
		}
	}
}
