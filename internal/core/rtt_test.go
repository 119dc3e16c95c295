package core

import (
	"encoding/hex"
	"slices"
	"testing"
	"time"

	"lifeguard/internal/telemetry"
	"lifeguard/internal/wire"
)

// rttLog is a telemetry.Recorder that keeps every RTT it is handed, per
// peer, and ignores the other hooks.
type rttLog map[string][]time.Duration

func (l rttLog) RecordRTT(peer string, rtt time.Duration)  { l[peer] = append(l[peer], rtt) }
func (rttLog) RecordProbe(string, telemetry.ProbeOutcome)  {}
func (rttLog) RecordLHM(int)                               {}
func (rttLog) RecordSuspicion(string, time.Duration, bool) {}

// TestProbeRecordsDirectRTT: a probe round answered on the direct path
// hands its round-trip time to telemetry, measured from when the ping
// left; a round answered only after it went indirect records none.
func TestProbeRecordsDirectRTT(t *testing.T) {
	rtts := rttLog{}
	h := newHarness(t, func(cfg *Config) { cfg.Telemetry = rtts })
	h.addMember("peer-1", 1)
	h.autoAck = false
	h.run(100 * time.Millisecond) // drain the startup burst
	h.clearSent()

	// Direct rounds: answer each ping within its timeout.
	var want []time.Duration
	for round := 0; round < 4; round++ {
		h.run(h.node.Config().ProbeInterval)
		for _, s := range h.sentOfType(wire.TypePing) {
			ping := s.msg.(*wire.Ping)
			if ping.Target != "peer-1" {
				continue
			}
			want = append(want, h.clock.Now().Sub(s.pkt.at))
			h.inject("peer-1", &wire.Ack{SeqNo: ping.SeqNo, Source: "peer-1"})
		}
		h.clearSent()
	}
	if len(want) == 0 || !slices.Equal(rtts["peer-1"], want) {
		t.Fatalf("recorded RTTs %v, want %v (ack arrival minus ping departure)", rtts["peer-1"], want)
	}

	// An indirect round: let the direct timeout pass, then answer.
	recorded := len(rtts["peer-1"])
	h.run(h.node.Config().ProbeInterval)
	var seq uint32
	found := false
	for _, s := range h.sentOfType(wire.TypePing) {
		if p := s.msg.(*wire.Ping); p.Target == "peer-1" {
			seq, found = p.SeqNo, true
		}
	}
	if !found {
		t.Fatal("no ping to peer-1 in the indirect round")
	}
	h.run(h.node.Config().ProbeTimeout + time.Millisecond)
	h.inject("peer-1", &wire.Ack{SeqNo: seq, Source: "peer-1"})
	if got := len(rtts["peer-1"]); got != recorded {
		t.Fatalf("an ack after the round went indirect recorded an RTT (%d → %d)", recorded, got)
	}
}

// v1CoordTail is the coordinate block a member of the previous release
// appended to its pings and acks (encoded by commit 64e77dd; see
// internal/wire/compat_test.go): version 1, eight dimensions, then the
// components, error, adjustment and height.
const v1CoordTail = "0108" +
	"3f50624dd2f1a9fc" + "bf60624dd2f1a9fc" + "3f689374bc6a7efa" + "bf70624dd2f1a9fc" +
	"3f747ae147ae147b" + "bf789374bc6a7efa" + "3f7cac083126e979" + "bf80624dd2f1a9fc" +
	"3fd0000000000000" + "bf1a36e2eb1c432d" + "3f36f0068db8bac7"

// TestCoordinatesDisabledInteroperates: a member, which carries no
// coordinate, in a rolling upgrade beside a peer still on the previous
// release, whose pings and acks end in a coordinate block. The member
// answers the peer's ping, and the peer's ack closes its probe round as
// a direct success.
func TestCoordinatesDisabledInteroperates(t *testing.T) {
	tail, err := hex.DecodeString(v1CoordTail)
	if err != nil {
		t.Fatal(err)
	}
	withTail := func(m wire.Message) []byte { return append(wire.Marshal(m), tail...) }

	rtts := rttLog{}
	h := newHarness(t, func(cfg *Config) { cfg.Telemetry = rtts })
	h.addMember("old", 1)
	h.autoAck = false
	h.run(100 * time.Millisecond)
	h.clearSent()

	h.node.HandlePacket("old", withTail(&wire.Ping{SeqNo: 5, Target: "self", Source: "old"}))
	acks := h.sentOfType(wire.TypeAck)
	if len(acks) != 1 {
		t.Fatalf("expected 1 ack to the old peer's ping, got %d", len(acks))
	}
	if a := acks[0].msg.(*wire.Ack); a.SeqNo != 5 || a.Source != "self" || acks[0].pkt.to != "old" {
		t.Fatalf("ack %+v to %s", a, acks[0].pkt.to)
	}
	h.clearSent()

	h.run(h.node.Config().ProbeInterval)
	pings := h.sentOfType(wire.TypePing)
	if len(pings) == 0 {
		t.Fatal("no ping to the old peer")
	}
	ping := pings[0].msg.(*wire.Ping)
	rtt := h.clock.Now().Sub(pings[0].pkt.at)
	h.node.HandlePacket("old", withTail(&wire.Ack{SeqNo: ping.SeqNo, Source: "old"}))
	if got := rtts["old"]; len(got) != 1 || got[0] != rtt {
		t.Fatalf("old peer's ack recorded RTTs %v, want one of %v", got, rtt)
	}
	h.run(h.node.Config().ProbeInterval)
	if m := h.state("old"); m.State != StateAlive {
		t.Fatalf("old peer is %v after answering, want alive", m.State)
	}
}

// TestRelayMeasuresTargetRTT: an indirect-probe relay pings the target
// itself, so the relay records its own round trip to the target, and
// forwards the target's ack under the originator's sequence number.
func TestRelayMeasuresTargetRTT(t *testing.T) {
	rtts := rttLog{}
	h := newHarness(t, func(cfg *Config) { cfg.Telemetry = rtts })
	h.addMember("origin", 1)
	h.addMember("target", 1)
	h.autoAck = false
	h.run(10 * time.Millisecond)
	h.clearSent()

	h.inject("origin", &wire.IndirectPing{SeqNo: 9, Target: "target", Source: "origin", WantNack: true})
	relayed := h.sentOfType(wire.TypePing)
	if len(relayed) != 1 {
		t.Fatalf("expected 1 relayed ping, got %d", len(relayed))
	}
	seq := relayed[0].msg.(*wire.Ping).SeqNo
	h.clearSent()

	// The target answers 3 ms later.
	h.run(3 * time.Millisecond)
	h.inject("target", &wire.Ack{SeqNo: seq, Source: "target"})

	if got := rtts["target"]; len(got) != 1 || got[0] != 3*time.Millisecond {
		t.Fatalf("relay recorded RTTs %v to the target, want one of 3ms", got)
	}
	fwd := h.sentOfType(wire.TypeAck)
	if len(fwd) != 1 {
		t.Fatalf("expected 1 forwarded ack, got %d", len(fwd))
	}
	if fa := fwd[0].msg.(*wire.Ack); fa.SeqNo != 9 || fa.Source != "target" || fwd[0].pkt.to != "origin" {
		t.Fatalf("forwarded ack %+v to %s", fa, fwd[0].pkt.to)
	}
}
