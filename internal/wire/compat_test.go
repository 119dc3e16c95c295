package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
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

// Packets a member of the previous release put on the wire, encoded by
// commit 5f83ed7. Its alives and push-pull states ended with member
// metadata, a length-prefixed field that now always goes out empty.
const (
	// Alive{Incarnation: 5, Node: "node-m", Addr: "10.0.0.9:7946"},
	// meta "dc=eu,role=web".
	metaAliveHex = "0605066e6f64652d6d0d31302e302e302e393a37393436" + "0e64633d65752c726f6c653d776562"
	// PushPullReq{Source: "node-a", Join: true} with node-a (alive@1,
	// meta "tags") and node-b (suspect@9, no meta).
	metaReqHex = "08066e6f64652d610102" +
		"066e6f64652d610d31302e302e302e313a373934360100" + "0474616773" +
		"066e6f64652d620d31302e302e302e323a373934360901" + "00"
	// PushPullResp{Source: "node-b"} with node-c (dead@2, meta
	// "rack=7").
	metaRespHex = "09066e6f64652d6201" +
		"066e6f64652d630d31302e302e302e333a373934360202" + "067261636b3d37"
	// Compound of the alive above, Suspect{Incarnation: 2, Node:
	// "node-c", From: "node-a"}, and the request and response above.
	metaCompoundHex = "0a04" + "26" + metaAliveHex + "10" + "0502066e6f64652d63066e6f64652d61" +
		"3e" + metaReqHex + "27" + metaRespHex
)

// TestPreviousReleaseMetadataDecodes is the mixed-version check for the
// retired metadata field: a previous release's alive and push-pull
// tables, bare and in a compound, decode to their fixed fields, and a
// warm pooled decoder skips the metadata without allocating.
func TestPreviousReleaseMetadataDecodes(t *testing.T) {
	alive := &Alive{Incarnation: 5, Node: "node-m", Addr: "10.0.0.9:7946"}
	req := &PushPullReq{Source: "node-a", Join: true, States: []PushPullState{
		{Name: "node-a", Addr: "10.0.0.1:7946", Incarnation: 1, State: 0},
		{Name: "node-b", Addr: "10.0.0.2:7946", Incarnation: 9, State: 1},
	}}
	resp := &PushPullResp{Source: "node-b", States: []PushPullState{
		{Name: "node-c", Addr: "10.0.0.3:7946", Incarnation: 2, State: 2},
	}}
	for _, c := range []struct {
		name, hex string
		want      []Message
	}{
		{"alive", metaAliveHex, []Message{alive}},
		{"push-pull-req", metaReqHex, []Message{req}},
		{"push-pull-resp", metaRespHex, []Message{resp}},
		{"compound", metaCompoundHex, []Message{
			alive, &Suspect{Incarnation: 2, Node: "node-c", From: "node-a"}, req, resp,
		}},
	} {
		requirePreviousReleaseDecodes(t, c.name, c.hex, c.want)
		pkt := mustHex(t, c.hex)
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
			t.Errorf("%s: pooled decode allocates %.1f times, want 0", c.name, allocs)
		}
	}
}

// TestMetadataLengthBounds: the skipped field keeps a string's bounds,
// so metadata of maxStringLen bytes decodes, a length over it is
// oversize and one past the end of the message is truncated, in an
// alive and in a push-pull state alike, on both decoders.
func TestMetadataLengthBounds(t *testing.T) {
	alivePrefix := mustHex(t, "0605066e6f64652d6d0d31302e302e302e393a37393436")
	statePrefix := mustHex(t, "09066e6f64652d6201066e6f64652d630d31302e302e302e333a373934360202")
	withField := func(prefix []byte, n uint64, body int) []byte {
		e := encoder{buf: append([]byte(nil), prefix...)}
		e.uvarint(n)
		e.buf = append(e.buf, make([]byte, body)...)
		return e.buf
	}
	for _, c := range []struct {
		name string
		pkt  []byte
		want error
	}{
		{"alive at the bound", withField(alivePrefix, maxStringLen, maxStringLen), nil},
		{"alive oversize", withField(alivePrefix, maxStringLen+1, maxStringLen+1), ErrOversize},
		{"alive truncated", withField(alivePrefix, 5, 2), ErrTruncated},
		{"state at the bound", withField(statePrefix, maxStringLen, maxStringLen), nil},
		{"state oversize", withField(statePrefix, maxStringLen+1, maxStringLen+1), ErrOversize},
		{"state truncated", withField(statePrefix, 7, 1), ErrTruncated},
	} {
		if _, err := DecodePacket(c.pkt); !errors.Is(err, c.want) {
			t.Errorf("%s: DecodePacket err = %v, want %v", c.name, err, c.want)
		}
		if _, err := new(Unpacker).Decode(c.pkt); !errors.Is(err, c.want) {
			t.Errorf("%s: Unpacker.Decode err = %v, want %v", c.name, err, c.want)
		}
	}
}
