package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// legacyMarshalPing encodes a Ping as the fixed fields alone, the
// format every release has decoded. It stands in for a peer that sends
// no trailing block.
func legacyMarshalPing(m *Ping) []byte {
	e := encoder{}
	e.byte(uint8(TypePing))
	e.uint32(m.SeqNo)
	e.string(m.Target)
	e.string(m.Source)
	return e.buf
}

func legacyMarshalAck(m *Ack) []byte {
	e := encoder{}
	e.byte(uint8(TypeAck))
	e.uint32(m.SeqNo)
	e.string(m.Source)
	return e.buf
}

// Packets a member of the previous release put on the wire, encoded by
// commit 64e77dd. Its pings and acks carried the sender's Vivaldi
// coordinate after their fixed fields: version byte 1, dimension count
// 8, eight float64 components, then error, adjustment and height.
const (
	// Ping{SeqNo: 7, Target: "node-b", Source: "node-a"} + coordinate.
	v1PingHex = "0100000007066e6f64652d62066e6f64652d61" + v1CoordHex
	// Ack{SeqNo: 7, Source: "node-b"} + coordinate.
	v1AckHex = "0300000007066e6f64652d62" + v1CoordHex
	// Compound of the ping above, Suspect{Incarnation: 2, Node:
	// "node-c", From: "node-a"} and the ack above.
	v1CompoundHex = "0a03" + "6d" + v1PingHex + "10" + "0502066e6f64652d63066e6f64652d61" + "66" + v1AckHex

	v1CoordHex = "0108" +
		"3f50624dd2f1a9fc" + "bf60624dd2f1a9fc" + "3f689374bc6a7efa" + "bf70624dd2f1a9fc" +
		"3f747ae147ae147b" + "bf789374bc6a7efa" + "3f7cac083126e979" + "bf80624dd2f1a9fc" +
		"3fd0000000000000" + "bf1a36e2eb1c432d" + "3f36f0068db8bac7"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCoordlessEncodingIsByteIdenticalToLegacy pins that a ping or ack
// is its fixed fields and nothing more, so every release decodes it.
func TestCoordlessEncodingIsByteIdenticalToLegacy(t *testing.T) {
	ping := &Ping{SeqNo: 9, Target: "t", Source: "s"}
	if got, want := Marshal(ping), legacyMarshalPing(ping); !bytes.Equal(got, want) {
		t.Errorf("ping encoding changed:\ngot:  %x\nwant: %x", got, want)
	}
	ack := &Ack{SeqNo: 9, Source: "s"}
	if got, want := Marshal(ack), legacyMarshalAck(ack); !bytes.Equal(got, want) {
		t.Errorf("ack encoding changed:\ngot:  %x\nwant: %x", got, want)
	}
}

// requirePreviousReleaseDecodes decodes a previous release's packet on
// both the allocating and the pooled decoder and requires the fixed
// fields of each message, with no error.
func requirePreviousReleaseDecodes(t *testing.T, name, pktHex string, want []Message) {
	t.Helper()
	pkt := mustHex(t, pktHex)
	got, err := DecodePacket(pkt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s decoded to %+v, want %+v", name, got, want)
	}
	u := new(Unpacker)
	pooled, err := u.Decode(pkt)
	if err != nil {
		t.Fatalf("%s (pooled): %v", name, err)
	}
	if !reflect.DeepEqual(pooled, want) {
		t.Errorf("%s (pooled) decoded to %+v, want %+v", name, pooled, want)
	}
}

// TestLegacyPeerDecodesCoordinateMessages is the mixed-version check
// for bare messages: every member now decodes as a coordinate-unaware
// peer did, so a previous release's ping and ack, each with its
// coordinate tail, decode to their fixed fields.
func TestLegacyPeerDecodesCoordinateMessages(t *testing.T) {
	requirePreviousReleaseDecodes(t, "ping", v1PingHex,
		[]Message{&Ping{SeqNo: 7, Target: "node-b", Source: "node-a"}})
	requirePreviousReleaseDecodes(t, "ack", v1AckHex,
		[]Message{&Ack{SeqNo: 7, Source: "node-b"}})
}

// TestPreviousReleaseCoordinateTailsDecode is the mixed-version check
// through compound framing, where each part is length-delimited and a
// tail ends at its part's boundary.
func TestPreviousReleaseCoordinateTailsDecode(t *testing.T) {
	requirePreviousReleaseDecodes(t, "compound", v1CompoundHex, []Message{
		&Ping{SeqNo: 7, Target: "node-b", Source: "node-a"},
		&Suspect{Incarnation: 2, Node: "node-c", From: "node-a"},
		&Ack{SeqNo: 7, Source: "node-b"},
	})
}

// TestModernPeerDecodesLegacyMessages: a ping or ack with no tail
// decodes to exactly its fields.
func TestModernPeerDecodesLegacyMessages(t *testing.T) {
	ping := &Ping{SeqNo: 3, Target: "node-b", Source: "node-a"}
	m, err := unmarshal(legacyMarshalPing(ping))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, ping) {
		t.Errorf("legacy ping decoded to %+v", m)
	}

	ack := &Ack{SeqNo: 3, Source: "node-b"}
	ma, err := unmarshal(legacyMarshalAck(ack))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ma, ack) {
		t.Errorf("legacy ack decoded to %+v", ma)
	}
}

// TestUnknownCoordBlockVersionIgnored: a tail tagged with some other
// version byte is skipped, not an error.
func TestUnknownCoordBlockVersionIgnored(t *testing.T) {
	base := &Ping{SeqNo: 5, Target: "t", Source: "s"}
	buf := append(legacyMarshalPing(base), 0x7F, 0xDE, 0xAD, 0xBE, 0xEF)
	m, err := unmarshal(buf)
	if err != nil {
		t.Fatalf("future-version tail rejected: %v", err)
	}
	if !reflect.DeepEqual(m, base) {
		t.Errorf("future-version tail decoded to %+v", m)
	}
}

// requireTailIgnored: the decoder never reads a ping's tail, so the
// ping decodes to its fixed fields and a warm pooled decoder spends no
// allocation on the tail.
func requireTailIgnored(t *testing.T, tail []byte) {
	t.Helper()
	base := &Ping{SeqNo: 1, Target: "t", Source: "s"}
	pkt := append(legacyMarshalPing(base), tail...)
	m, err := unmarshal(pkt)
	if err != nil || !reflect.DeepEqual(m, base) {
		t.Fatalf("tail %x: decoded to %+v, %v", tail, m, err)
	}
	u := new(Unpacker)
	if _, err := u.Decode(pkt); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := u.Decode(pkt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("tail %x: pooled decode allocates %.1f times, want 0", tail, allocs)
	}
}

// TestTruncatedCoordBlockIgnored: a v1 coordinate block cut short at
// any length decodes like any other tail.
func TestTruncatedCoordBlockIgnored(t *testing.T) {
	full := mustHex(t, v1CoordHex)
	for i := 1; i < len(full); i++ {
		requireTailIgnored(t, full[:i])
	}
}

// TestOversizeCoordDimensionIgnored: a v1 block claiming 2^30
// dimensions allocates nothing, because nothing reads its count.
func TestOversizeCoordDimensionIgnored(t *testing.T) {
	huge := encoder{buf: []byte{1}}
	huge.uvarint(1 << 30)
	requireTailIgnored(t, huge.buf)
}
