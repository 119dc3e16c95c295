package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// FuzzDecodePacket throws arbitrary bytes at the packet decoder, which
// must never panic or allocate unboundedly (the maxStringLen/maxStates
// bounds exist precisely for corrupt length prefixes), and must
// round-trip every packet it accepts: decode → re-encode → decode again
// must reproduce the same messages.
func FuzzDecodePacket(f *testing.F) {
	// Corpus: one well-formed packet per message type, plus a compound
	// packet, the empty packet, and truncation/oversize probes.
	singles := []Message{
		&Ping{SeqNo: 1, Target: "t", Source: "s"},
		&IndirectPing{SeqNo: 2, Target: "t", Source: "s", WantNack: true},
		&Ack{SeqNo: 3, Source: "s"},
		&Nack{SeqNo: 4, Source: "s"},
		&Suspect{Incarnation: 5, Node: "n", From: "f"},
		&Alive{Incarnation: 6, Node: "n", Addr: "a"},
		&Dead{Incarnation: 7, Node: "n", From: "f"},
		&PushPullReq{Source: "s", Join: true, States: []PushPullState{
			{Name: "n", Addr: "a", Incarnation: 1, State: 1},
		}},
		&PushPullResp{Source: "s", States: []PushPullState{
			{Name: "n", Addr: "a", Incarnation: 2, State: 3},
		}},
	}
	for _, m := range singles {
		f.Add(Marshal(m))
	}
	f.Add(EncodePacket([]Message{
		&Ping{SeqNo: 1, Target: "t", Source: "s"},
		&Suspect{Incarnation: 5, Node: "n", From: "f"},
		&Alive{Incarnation: 6, Node: "n", Addr: "a"},
	}))
	// Previous releases' coordinate tails and metadata (compat_test.go),
	// then tails cut short, with an oversize dimension, and with an
	// unknown version byte: each decodes, the tail ignored.
	for _, h := range []string{v1PingHex, v1AckHex, v1CompoundHex, metaAliveHex, metaReqHex, metaRespHex, metaCompoundHex} {
		b, _ := hex.DecodeString(h)
		f.Add(b)
	}
	f.Add(append(Marshal(&Ping{SeqNo: 1, Target: "t", Source: "s"}), 0x01, 0x08, 0x00))
	f.Add(append(Marshal(&Ping{SeqNo: 1, Target: "t", Source: "s"}), 0x01, 0xFF, 0xFF, 0x7F))
	f.Add(append(Marshal(&Ack{SeqNo: 1, Source: "s"}), 0x7F, 0xDE, 0xAD))
	f.Add([]byte{})
	f.Add([]byte{byte(TypeCompound)})
	f.Add([]byte{byte(TypeCompound), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})                 // huge count
	f.Add([]byte{byte(TypeAlive), 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})              // oversize string
	f.Add(append([]byte{byte(TypePushPullReq), 0x01, 's', 0x01}, 0xFF, 0xFF, 0x7F)) // oversize states

	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, err := DecodePacket(data)

		// The pooled decoder must accept and reject exactly the same
		// inputs as the allocating one, and produce identical messages.
		u := AcquireUnpacker()
		pooled, perr := u.Decode(data)
		if (err == nil) != (perr == nil) {
			t.Fatalf("Unpacker.Decode error mismatch: DecodePacket err=%v, Unpacker err=%v", err, perr)
		}
		if err == nil {
			if len(pooled) != len(msgs) {
				t.Fatalf("Unpacker.Decode message count %d, DecodePacket %d", len(pooled), len(msgs))
			}
			for i := range msgs {
				a, b := Marshal(msgs[i]), Marshal(pooled[i])
				if !bytes.Equal(a, b) {
					t.Fatalf("Unpacker.Decode message %d differs:\n%x\n%x", i, a, b)
				}
			}
		}
		u.Release()

		if err != nil {
			return
		}
		// Accepted packets must re-encode and decode to the same messages.
		reenc := EncodePacket(msgs)
		again, err := DecodePacket(reenc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded packet failed: %v\ninput: %x\nreenc: %x", err, data, reenc)
		}
		if len(again) != len(msgs) {
			t.Fatalf("round trip changed message count: %d -> %d", len(msgs), len(again))
		}
		for i := range msgs {
			if msgs[i].Type() != again[i].Type() {
				t.Fatalf("round trip changed message %d type: %v -> %v", i, msgs[i].Type(), again[i].Type())
			}
			a, b := Marshal(msgs[i]), Marshal(again[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("round trip changed message %d encoding:\n%x\n%x", i, a, b)
			}
		}
	})
}
