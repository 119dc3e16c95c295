package wire

import (
	"bytes"
	"reflect"
	"testing"

	"lifeguard/internal/coords"
)

// legacyMarshalPing encodes a Ping exactly as the pre-coordinate wire
// format did: fixed fields only, no trailing block. It stands in for a
// peer running the old protocol.
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

// legacyDecodePing decodes only the pre-coordinate fields and ignores
// whatever follows, exactly as the old decoder did (it never checked
// for trailing bytes). It stands in for the old peer's decode path.
func legacyDecodePing(t *testing.T, buf []byte) *Ping {
	t.Helper()
	if MsgType(buf[0]) != TypePing {
		t.Fatalf("not a ping: tag %d", buf[0])
	}
	d := decoder{buf: buf[1:]}
	m := &Ping{SeqNo: d.uint32(), Target: d.string(), Source: d.string()}
	if d.err != nil {
		t.Fatalf("legacy decode failed: %v", d.err)
	}
	return m
}

func legacyDecodeAck(t *testing.T, buf []byte) *Ack {
	t.Helper()
	if MsgType(buf[0]) != TypeAck {
		t.Fatalf("not an ack: tag %d", buf[0])
	}
	d := decoder{buf: buf[1:]}
	m := &Ack{SeqNo: d.uint32(), Source: d.string()}
	if d.err != nil {
		t.Fatalf("legacy decode failed: %v", d.err)
	}
	return m
}

// TestCoordlessEncodingIsByteIdenticalToLegacy pins the promise that a
// nil coordinate adds zero bytes: members that never set coordinates
// emit exactly the old wire format.
func TestCoordlessEncodingIsByteIdenticalToLegacy(t *testing.T) {
	ping := &Ping{SeqNo: 9, Target: "t", Source: "s"}
	if got, want := Marshal(ping), legacyMarshalPing(ping); !bytes.Equal(got, want) {
		t.Errorf("coordless ping encoding changed:\ngot:  %x\nwant: %x", got, want)
	}
	ack := &Ack{SeqNo: 9, Source: "s"}
	if got, want := Marshal(ack), legacyMarshalAck(ack); !bytes.Equal(got, want) {
		t.Errorf("coordless ack encoding changed:\ngot:  %x\nwant: %x", got, want)
	}
}

// TestLegacyPeerDecodesCoordinateMessages is the forward direction: a
// packet carrying coordinates decodes on a coordinate-unaware peer,
// which sees the fixed fields and skips the tail.
func TestLegacyPeerDecodesCoordinateMessages(t *testing.T) {
	ping := &Ping{SeqNo: 7, Target: "node-b", Source: "node-a", Coord: sampleCoord()}
	got := legacyDecodePing(t, Marshal(ping))
	if got.SeqNo != ping.SeqNo || got.Target != ping.Target || got.Source != ping.Source {
		t.Errorf("legacy peer mis-decoded coordinate ping: %+v", got)
	}

	ack := &Ack{SeqNo: 7, Source: "node-b", Coord: sampleCoord()}
	gotAck := legacyDecodeAck(t, Marshal(ack))
	if gotAck.SeqNo != ack.SeqNo || gotAck.Source != ack.Source {
		t.Errorf("legacy peer mis-decoded coordinate ack: %+v", gotAck)
	}
}

// TestModernPeerDecodesLegacyMessages is the reverse direction: a
// legacy packet (no tail) decodes on a coordinate-aware peer as a
// message without a coordinate.
func TestModernPeerDecodesLegacyMessages(t *testing.T) {
	ping := &Ping{SeqNo: 3, Target: "node-b", Source: "node-a"}
	m, err := Unmarshal(legacyMarshalPing(ping))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*Ping); got.Coord != nil || !reflect.DeepEqual(got, ping) {
		t.Errorf("legacy ping decoded to %+v", got)
	}

	ack := &Ack{SeqNo: 3, Source: "node-b"}
	ma, err := Unmarshal(legacyMarshalAck(ack))
	if err != nil {
		t.Fatal(err)
	}
	if got := ma.(*Ack); got.Coord != nil || !reflect.DeepEqual(got, ack) {
		t.Errorf("legacy ack decoded to %+v", got)
	}
}

// TestUnknownCoordBlockVersionIgnored pins the next escape hatch: a
// tail tagged with a future version byte is skipped, not an error, so
// this codec revision is itself forward-compatible.
func TestUnknownCoordBlockVersionIgnored(t *testing.T) {
	base := &Ping{SeqNo: 5, Target: "t", Source: "s"}
	buf := append(legacyMarshalPing(base), 0x7F, 0xDE, 0xAD, 0xBE, 0xEF)
	m, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("future-version tail rejected: %v", err)
	}
	if got := m.(*Ping); got.Coord != nil || got.SeqNo != base.SeqNo {
		t.Errorf("future-version tail decoded to %+v", got)
	}
}

// TestCoordinateRoundTripInCompound exercises the coordinate block
// through compound framing, where each part is length-delimited and the
// tail boundary is per-message.
func TestCoordinateRoundTripInCompound(t *testing.T) {
	msgs := []Message{
		&Ping{SeqNo: 1, Target: "t", Source: "s", Coord: sampleCoord()},
		&Suspect{Incarnation: 2, Node: "n", From: "f"},
		&Ack{SeqNo: 1, Source: "t", Coord: sampleCoord()},
		&Ping{SeqNo: 2, Target: "u", Source: "s"}, // coordless alongside
	}
	got, err := DecodePacket(EncodePacket(msgs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msgs) {
		t.Errorf("compound coordinate round trip mismatch:\n got %+v\nwant %+v", got, msgs)
	}
}

// TestTruncatedCoordBlockRejected: a v1 tail that is cut short is a
// malformed packet, not a silent nil coordinate.
func TestTruncatedCoordBlockRejected(t *testing.T) {
	full := Marshal(&Ping{SeqNo: 1, Target: "t", Source: "s", Coord: sampleCoord()})
	bare := len(legacyMarshalPing(&Ping{SeqNo: 1, Target: "t", Source: "s"}))
	for i := bare + 1; i < len(full); i++ {
		if _, err := Unmarshal(full[:i]); err == nil {
			t.Errorf("truncated coord block at %d/%d accepted", i, len(full))
		}
	}
}

// TestOversizeCoordDimensionRejected: a corrupt dimension count must
// not allocate unboundedly.
func TestOversizeCoordDimensionRejected(t *testing.T) {
	e := encoder{buf: legacyMarshalPing(&Ping{SeqNo: 1, Target: "t", Source: "s"})}
	e.byte(coordBlockV1)
	e.uvarint(1 << 30)
	if _, err := Unmarshal(e.buf); err == nil {
		t.Error("oversize coordinate dimension accepted")
	}
}

// TestCoordinateSizeBudget pins the coordinate block's wire cost so MTU
// budgeting stays honest: an 8-dimension coordinate must cost at most
// 100 bytes on a ping or ack.
func TestCoordinateSizeBudget(t *testing.T) {
	c := coords.NewCoordinate(coords.DefaultConfig())
	bare := len(Marshal(&Ping{SeqNo: 1, Target: "node-000", Source: "node-001"}))
	withCoord := len(Marshal(&Ping{SeqNo: 1, Target: "node-000", Source: "node-001", Coord: c}))
	if cost := withCoord - bare; cost > 100 {
		t.Errorf("coordinate block costs %d bytes on the wire, budget is 100", cost)
	}
}
