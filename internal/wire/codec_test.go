package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// unmarshal decodes a single non-compound message with fresh
// allocations, the way DecodePacket decodes a bare packet.
func unmarshal(b []byte) (Message, error) {
	return unmarshalWith(nil, b)
}

// sampleMessages returns one populated instance of every message type.
func sampleMessages() []Message {
	return []Message{
		&Ping{SeqNo: 42, Target: "node-b", Source: "node-a"},
		&IndirectPing{SeqNo: 7, Target: "node-c", Source: "node-a", WantNack: true},
		&IndirectPing{SeqNo: 8, Target: "node-c", Source: "node-a", WantNack: false},
		&Ack{SeqNo: 42, Source: "node-b"},
		&Nack{SeqNo: 7, Source: "node-r"},
		&Suspect{Incarnation: 3, Node: "node-x", From: "node-y"},
		&Alive{Incarnation: 4, Node: "node-x", Addr: "10.0.0.1:7946"},
		&Dead{Incarnation: 5, Node: "node-x", From: "node-z"},
		&PushPullReq{Source: "node-a", Join: true, States: []PushPullState{
			{Name: "node-a", Addr: "10.0.0.1:7946", Incarnation: 1, State: 1},
			{Name: "node-b", Addr: "10.0.0.2:7946", Incarnation: 9, State: 3},
		}},
		&PushPullReq{Source: "node-a", Join: false, States: nil},
		&PushPullResp{Source: "node-b", States: []PushPullState{
			{Name: "node-c", Addr: "", Incarnation: 0, State: 2},
		}},
	}
}

func TestMarshalRoundTripAllTypes(t *testing.T) {
	for _, msg := range sampleMessages() {
		buf := Marshal(msg)
		got, err := unmarshal(buf)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", msg.Type(), err)
		}
		if !reflect.DeepEqual(msg, got) {
			t.Errorf("%s round trip mismatch:\n want %+v\n got  %+v", msg.Type(), msg, got)
		}
	}
}

func TestMarshalTypeTagIsFirstByte(t *testing.T) {
	for _, msg := range sampleMessages() {
		buf := Marshal(msg)
		if MsgType(buf[0]) != msg.Type() {
			t.Errorf("%s: first byte is %d", msg.Type(), buf[0])
		}
	}
}

func TestUnmarshalEmpty(t *testing.T) {
	if _, err := unmarshal(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("unmarshal nil: got %v, want ErrTruncated", err)
	}
}

func TestUnmarshalUnknownType(t *testing.T) {
	if _, err := unmarshal([]byte{0xEE, 0x01}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("got %v, want ErrUnknownType", err)
	}
}

func TestUnmarshalTruncatedEveryPrefix(t *testing.T) {
	// Every strict prefix of a valid encoding must decode with an error,
	// never panic or succeed.
	for _, msg := range sampleMessages() {
		buf := Marshal(msg)
		for i := 1; i < len(buf); i++ {
			if got, err := unmarshal(buf[:i]); err == nil {
				t.Errorf("%s: prefix %d/%d decoded to %+v", msg.Type(), i, len(buf), got)
			}
		}
	}
}

func TestUnmarshalOversizeString(t *testing.T) {
	// Hand-encode a ping whose target length prefix claims 2^20 bytes.
	e := encoder{}
	e.byte(uint8(TypePing))
	e.uint32(1)
	e.uvarint(1 << 20)
	if _, err := unmarshal(e.buf); !errors.Is(err, ErrOversize) {
		t.Errorf("got %v, want ErrOversize", err)
	}
}

func TestEncodePacketSingleIsBare(t *testing.T) {
	msg := &Ping{SeqNo: 1, Target: "t", Source: "s"}
	pkt := EncodePacket([]Message{msg})
	if MsgType(pkt[0]) != TypePing {
		t.Fatalf("single-message packet wrapped in compound (tag %d)", pkt[0])
	}
	if !bytes.Equal(pkt, Marshal(msg)) {
		t.Error("single-message packet differs from bare marshal")
	}
}

func TestEncodePacketEmpty(t *testing.T) {
	if pkt := EncodePacket(nil); pkt != nil {
		t.Errorf("empty packet: got %v", pkt)
	}
}

func TestCompoundRoundTrip(t *testing.T) {
	msgs := sampleMessages()
	pkt := EncodePacket(msgs)
	if MsgType(pkt[0]) != TypeCompound {
		t.Fatalf("multi-message packet not compound (tag %d)", pkt[0])
	}
	got, err := DecodePacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("got %d messages, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !reflect.DeepEqual(msgs[i], got[i]) {
			t.Errorf("message %d mismatch: want %+v, got %+v", i, msgs[i], got[i])
		}
	}
}

func TestDecodePacketBareMessage(t *testing.T) {
	msg := &Suspect{Incarnation: 1, Node: "n", From: "f"}
	got, err := DecodePacket(Marshal(msg))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], msg) {
		t.Errorf("got %+v", got)
	}
}

func TestDecodePacketRejectsNestedCompound(t *testing.T) {
	inner := EncodePacket([]Message{
		&Ping{SeqNo: 1}, &Ack{SeqNo: 1},
	})
	// Hand-build a compound packet containing the inner compound.
	e := encoder{}
	e.byte(uint8(TypeCompound))
	e.uvarint(1)
	e.uvarint(uint64(len(inner)))
	e.buf = append(e.buf, inner...)
	if _, err := DecodePacket(e.buf); err == nil {
		t.Error("nested compound accepted")
	}
}

func TestDecodePacketTruncatedCompound(t *testing.T) {
	pkt := EncodePacket([]Message{
		&Ping{SeqNo: 1, Target: "a", Source: "b"},
		&Ack{SeqNo: 1, Source: "a"},
	})
	for i := 1; i < len(pkt); i++ {
		if msgs, err := DecodePacket(pkt[:i]); err == nil && len(msgs) == 2 {
			t.Errorf("truncated compound at %d decoded fully", i)
		}
	}
}

func TestAppendMarshalAppends(t *testing.T) {
	prefix := []byte{1, 2, 3}
	msg := &Ack{SeqNo: 9, Source: "x"}
	out := AppendMarshal(prefix, msg)
	if !bytes.Equal(out[:3], prefix) {
		t.Error("prefix clobbered")
	}
	if !bytes.Equal(out[3:], Marshal(msg)) {
		t.Error("appended encoding differs from Marshal")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	known := map[MsgType]string{
		TypePing:         "ping",
		TypeIndirectPing: "ping-req",
		TypeAck:          "ack",
		TypeNack:         "nack",
		TypeSuspect:      "suspect",
		TypeAlive:        "alive",
		TypeDead:         "dead",
		TypePushPullReq:  "push-pull-req",
		TypePushPullResp: "push-pull-resp",
		TypeCompound:     "compound",
	}
	for typ, want := range known {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	if got := MsgType(200).String(); got != "unknown(200)" {
		t.Errorf("unknown type string: %q", got)
	}
}

// Property: every generated message round-trips exactly.

func (Ping) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(Ping{
		SeqNo:  r.Uint32(),
		Target: randName(r),
		Source: randName(r),
	})
}

func (Suspect) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(Suspect{
		Incarnation: r.Uint64() >> uint(r.Intn(64)),
		Node:        randName(r),
		From:        randName(r),
	})
}

func (Alive) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(Alive{
		Incarnation: r.Uint64() >> uint(r.Intn(64)),
		Node:        randName(r),
		Addr:        randName(r),
	})
}

func randName(r *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789.-:"
	n := r.Intn(64)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

func TestQuickPingRoundTrip(t *testing.T) {
	f := func(p Ping) bool {
		got, err := unmarshal(Marshal(&p))
		return err == nil && reflect.DeepEqual(got, &p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSuspectRoundTrip(t *testing.T) {
	f := func(s Suspect) bool {
		got, err := unmarshal(Marshal(&s))
		return err == nil && reflect.DeepEqual(got, &s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAliveRoundTrip(t *testing.T) {
	f := func(a Alive) bool {
		got, err := unmarshal(Marshal(&a))
		return err == nil && reflect.DeepEqual(got, &a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompoundRoundTrip(t *testing.T) {
	f := func(pings []Ping) bool {
		if len(pings) == 0 {
			return true
		}
		msgs := make([]Message, len(pings))
		for i := range pings {
			p := pings[i]
			msgs[i] = &p
		}
		got, err := DecodePacket(EncodePacket(msgs))
		if err != nil || len(got) != len(msgs) {
			return false
		}
		for i := range msgs {
			if !reflect.DeepEqual(msgs[i], got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecodeRandomBytesNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		// Outcome is irrelevant; absence of panic is the property.
		_, _ = DecodePacket(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMarshalPing(b *testing.B) {
	msg := &Ping{SeqNo: 42, Target: "node-0123", Source: "node-4567"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Marshal(msg)
	}
}

func BenchmarkUnmarshalPing(b *testing.B) {
	buf := Marshal(&Ping{SeqNo: 42, Target: "node-0123", Source: "node-4567"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodePacketCompound(b *testing.B) {
	msgs := sampleMessages()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodePacket(msgs)
	}
}

func BenchmarkDecodePacketCompound(b *testing.B) {
	pkt := EncodePacket(sampleMessages())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePacket(pkt); err != nil {
			b.Fatal(err)
		}
	}
}
