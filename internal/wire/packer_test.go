package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomMessages builds a random message list from every type.
func randomMessages(rng *rand.Rand, n int) []Message {
	msgs := make([]Message, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(7) {
		case 0:
			msgs = append(msgs, &Ping{SeqNo: rng.Uint32(), Target: "t", Source: "s"})
		case 1:
			msgs = append(msgs, &IndirectPing{SeqNo: rng.Uint32(), Target: "t", Source: "s", WantNack: rng.Intn(2) == 0})
		case 2:
			msgs = append(msgs, &Ack{SeqNo: rng.Uint32(), Source: "s"})
		case 3:
			msgs = append(msgs, &Suspect{Incarnation: rng.Uint64() % 1000, Node: "n", From: "f"})
		case 4:
			msgs = append(msgs, &Alive{Incarnation: rng.Uint64() % 1000, Node: "n", Addr: "a"})
		case 5:
			msgs = append(msgs, &Dead{Incarnation: rng.Uint64() % 1000, Node: "n", From: "f"})
		case 6:
			msgs = append(msgs, &Nack{SeqNo: rng.Uint32(), Source: "s"})
		}
	}
	return msgs
}

// TestPackerMatchesEncodePacket pins the pooled packer's output to the
// reference EncodePacket framing, byte for byte, across message counts
// (bare single-message packets and compounds) and across Add vs AddRaw.
func TestPackerMatchesEncodePacket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		msgs := randomMessages(rng, 1+rng.Intn(12))
		want := EncodePacket(msgs)

		p := AcquirePacker()
		sizes := 0
		for _, m := range msgs {
			sizes += p.Add(m)
		}
		if got := p.Finish(); !bytes.Equal(got, want) {
			p.Release()
			t.Fatalf("trial %d: Packer.Add framing diverged\ngot:  %x\nwant: %x", trial, got, want)
		}
		if p.Count() != len(msgs) {
			t.Fatalf("trial %d: Count = %d, want %d", trial, p.Count(), len(msgs))
		}
		// Add must report each message's encoded size.
		wantSizes := 0
		for _, m := range msgs {
			wantSizes += len(Marshal(m))
		}
		if sizes != wantSizes {
			t.Fatalf("trial %d: Add sizes total %d, want %d", trial, sizes, wantSizes)
		}

		// AddRaw (the gossip piggyback path) must frame identically.
		p.Reset()
		for _, m := range msgs {
			p.AddRaw(Marshal(m))
		}
		if got := p.Finish(); !bytes.Equal(got, want) {
			p.Release()
			t.Fatalf("trial %d: Packer.AddRaw framing diverged", trial)
		}
		p.Release()
	}
}

// TestPingStaysUnderMTU reproduces the core's worst-case
// failure-detector send — a ping between long names, a Buddy System
// suspect forced in, and gossip piggyback packed to the remaining
// budget, exactly the accounting in sendWithPiggybackLocked — and
// asserts the packet never exceeds MTU.
func TestPingStaysUnderMTU(t *testing.T) {
	longName := "node-with-a-rather-long-hostname-0123456789.dc1.example.internal"

	p := AcquirePacker()
	defer p.Release()

	ping := &Ping{SeqNo: 1 << 31, Target: longName, Source: longName}
	used := p.Add(ping) + CompoundOverhead

	buddy := &Suspect{Incarnation: 1 << 40, Node: longName, From: longName}
	used += p.Add(buddy) + CompoundOverhead

	// Fill the rest of the budget greedily with maximum-size gossip
	// updates, the way GetBroadcastsInto packs the queue's payloads.
	gossip := Marshal(&Alive{Incarnation: 1 << 40, Node: longName, Addr: longName})
	budget := MTU - used
	for budget >= len(gossip)+CompoundOverhead {
		p.AddRaw(gossip)
		budget -= len(gossip) + CompoundOverhead
	}
	if p.Count() < 3 {
		t.Fatalf("budget left no room for piggyback: %d messages packed", p.Count())
	}

	pkt := p.Finish()
	if len(pkt) > MTU {
		t.Fatalf("ping packet is %d bytes, MTU is %d", len(pkt), MTU)
	}
	// The packet must also still decode.
	msgs, err := DecodePacket(pkt)
	if err != nil {
		t.Fatalf("packed ping packet does not decode: %v", err)
	}
	if got, ok := msgs[0].(*Ping); !ok || *got != *ping {
		t.Fatalf("ping lost in packing: %+v", msgs[0])
	}
}

// TestPackerReuse checks that a pooled packer carries no state across
// Reset/Release cycles.
func TestPackerReuse(t *testing.T) {
	p := AcquirePacker()
	p.Add(&Ping{SeqNo: 1, Target: "t", Source: "s"})
	p.Add(&Ack{SeqNo: 2, Source: "s"})
	first := append([]byte(nil), p.Finish()...)
	p.Reset()
	if p.Count() != 0 || p.Finish() != nil {
		t.Fatal("Reset left state behind")
	}
	p.Add(&Ping{SeqNo: 1, Target: "t", Source: "s"})
	p.Add(&Ack{SeqNo: 2, Source: "s"})
	if got := p.Finish(); !bytes.Equal(got, first) {
		t.Fatalf("reused packer produced different bytes:\n%x\n%x", got, first)
	}
	p.Release()
}
