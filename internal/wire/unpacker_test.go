package wire

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestUnpackerMatchesDecodePacket pins the pooled decoder to the
// allocating one over every message type, bare and compound.
func TestUnpackerMatchesDecodePacket(t *testing.T) {
	u := AcquireUnpacker()
	defer u.Release()

	var packets [][]byte
	for _, m := range sampleMessages() {
		packets = append(packets, Marshal(m))
	}
	packets = append(packets, EncodePacket(sampleMessages()))

	for _, pkt := range packets {
		want, err := DecodePacket(pkt)
		if err != nil {
			t.Fatalf("DecodePacket: %v", err)
		}
		got, err := u.Decode(pkt)
		if err != nil {
			t.Fatalf("Unpacker.Decode: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("message count %d, want %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("message %d:\n want %+v\n got  %+v", i, want[i], got[i])
			}
		}
	}
}

// TestUnpackerReuseAcrossDecodes drives one unpacker through many
// different packets and checks each decode is uncontaminated by the
// previous one.
func TestUnpackerReuseAcrossDecodes(t *testing.T) {
	u := AcquireUnpacker()
	defer u.Release()

	msgs := sampleMessages()
	for round := 0; round < 3; round++ {
		for _, m := range msgs {
			pkt := Marshal(m)
			got, err := u.Decode(pkt)
			if err != nil {
				t.Fatalf("%s: %v", m.Type(), err)
			}
			if len(got) != 1 || !reflect.DeepEqual(m, got[0]) {
				t.Fatalf("%s round %d:\n want %+v\n got  %+v", m.Type(), round, m, got[0])
			}
		}
	}
}

// TestUnpackerInternOverflowStillDecodes checks that names beyond the
// intern table's bounds — too long, or four times more of them than it
// has slots — degrade to plain allocation, not to wrong strings.
func TestUnpackerInternOverflowStillDecodes(t *testing.T) {
	u := AcquireUnpacker()
	defer u.Release()

	long := strings.Repeat("x", maxInternedNameLen+10)
	got, err := u.Decode(Marshal(&Nack{SeqNo: 1, Source: long}))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].(*Nack).Source != long {
		t.Fatal("over-length string decoded incorrectly")
	}

	for i := 0; i < 4*len(u.names)+100; i++ {
		name := fmt.Sprintf("member-%d", i)
		got, err := u.Decode(Marshal(&Nack{SeqNo: 1, Source: name}))
		if err != nil {
			t.Fatal(err)
		}
		if got[0].(*Nack).Source != name {
			t.Fatalf("entry %d decoded as %q", i, got[0].(*Nack).Source)
		}
	}
}

// TestUnpackerCollidingNames decodes two names that share a slot (same
// length, same last eight bytes) alternately: each evicts the other, and
// both must come out right every time.
func TestUnpackerCollidingNames(t *testing.T) {
	a, b := "rack-a/node-0042", "rack-b/node-0042"
	if nameSlot([]byte(a)) != nameSlot([]byte(b)) {
		t.Fatalf("%q and %q were meant to share a slot", a, b)
	}
	u := new(Unpacker)
	for i := 0; i < 8; i++ {
		got, err := u.Decode(EncodePacket([]Message{
			&Suspect{Incarnation: 1, Node: a, From: b},
			&Suspect{Incarnation: 1, Node: b, From: a},
		}))
		if err != nil {
			t.Fatal(err)
		}
		s0, s1 := got[0].(*Suspect), got[1].(*Suspect)
		if s0.Node != a || s0.From != b || s1.Node != b || s1.From != a {
			t.Fatalf("round %d: decoded %q/%q and %q/%q", i, s0.Node, s0.From, s1.Node, s1.From)
		}
	}
}

// TestNameSlotsOfNumberedNames pins what the slot hash was chosen for:
// the harness's canonical member names, at the largest measured cluster
// size, occupy distinct slots, so a simulated cluster's decode path
// reaches its zero-allocation steady state.
func TestNameSlotsOfNumberedNames(t *testing.T) {
	seen := make(map[uint64]string)
	for i := 0; i < 384; i++ {
		name := fmt.Sprintf("node-%03d", i)
		slot := nameSlot([]byte(name))
		if prev, dup := seen[slot]; dup {
			t.Errorf("%s and %s share slot %d", prev, name, slot)
		}
		seen[slot] = name
	}
}

// decodeAllocPacket builds the steady-state packet shape: a compound of
// ping + ack plus piggybacked gossip, with all names
// pre-warm in the intern table after the first decode.
func decodeAllocPacket() []byte {
	return EncodePacket([]Message{
		&Ping{SeqNo: 9, Target: "node-b", Source: "node-a"},
		&Ack{SeqNo: 8, Source: "node-b"},
		&Suspect{Incarnation: 3, Node: "node-c", From: "node-a"},
		&Alive{Incarnation: 4, Node: "node-d", Addr: "10.0.0.4:7946"},
	})
}

// TestDecodeAllocs gates the zero-alloc decode contract: once the
// unpacker is warm, decoding a steady-state packet allocates nothing.
func TestDecodeAllocs(t *testing.T) {
	// A fresh unpacker, so the gate does not depend on what other tests
	// left in a pooled one.
	u := new(Unpacker)
	pkt := decodeAllocPacket()
	if _, err := u.Decode(pkt); err != nil { // warm pools and intern table
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := u.Decode(pkt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Decode allocates %.1f times per packet, want 0", allocs)
	}
}

func BenchmarkDecodeAllocs(b *testing.B) {
	u := new(Unpacker)
	pkt := decodeAllocPacket()
	if _, err := u.Decode(pkt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msgs, err := u.Decode(pkt)
		if err != nil || len(msgs) != 4 {
			b.Fatalf("decode: %v (%d msgs)", err, len(msgs))
		}
	}
}

// BenchmarkDecodePacketAllocating is the pre-pool baseline for
// comparison with BenchmarkDecodeAllocs.
func BenchmarkDecodePacketAllocating(b *testing.B) {
	pkt := decodeAllocPacket()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msgs, err := DecodePacket(pkt)
		if err != nil || len(msgs) != 4 {
			b.Fatalf("decode: %v (%d msgs)", err, len(msgs))
		}
	}
}
