package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// fuzzTables are the push-pull tables of the fuzz corpora; the last
// differs from the first in its incarnation alone.
var fuzzTables = [][]PushPullState{
	{{Name: "n", Addr: "a", Incarnation: 1, State: 1}},
	{{Name: "n", Addr: "a", Incarnation: 2, State: 3}},
	{{Name: "n", Addr: "a", Incarnation: 2, State: 1}},
}

// pushPullSeeds is the push-pull part of both fuzz corpora: a request
// and a response, the previous release's tables with metadata
// (compat_test.go), and an oversize state count.
func pushPullSeeds() [][]byte {
	seeds := [][]byte{
		Marshal(&PushPullReq{Source: "s", Join: true, States: fuzzTables[0]}),
		Marshal(&PushPullResp{Source: "s", States: fuzzTables[1]}),
		Marshal(&PushPullResp{Source: "s", States: fuzzTables[2]}),
		append([]byte{byte(TypePushPullReq), 0x01, 's', 0x01}, 0xFF, 0xFF, 0x7F),
	}
	for _, h := range []string{metaReqHex, metaRespHex} {
		b, _ := hex.DecodeString(h)
		seeds = append(seeds, b)
	}
	return seeds
}

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
	}
	for _, m := range singles {
		f.Add(Marshal(m))
	}
	for _, b := range pushPullSeeds() {
		f.Add(b)
	}
	f.Add(EncodePacket([]Message{
		&Ping{SeqNo: 1, Target: "t", Source: "s"},
		&Suspect{Incarnation: 5, Node: "n", From: "f"},
		&Alive{Incarnation: 6, Node: "n", Addr: "a"},
	}))
	// Previous releases' coordinate tails and metadata (compat_test.go),
	// then tails cut short, with an oversize dimension, and with an
	// unknown version byte: each decodes, the tail ignored.
	for _, h := range []string{v1PingHex, v1AckHex, v1CompoundHex, metaAliveHex, metaCompoundHex} {
		b, _ := hex.DecodeString(h)
		f.Add(b)
	}
	f.Add(append(Marshal(&Ping{SeqNo: 1, Target: "t", Source: "s"}), 0x01, 0x08, 0x00))
	f.Add(append(Marshal(&Ping{SeqNo: 1, Target: "t", Source: "s"}), 0x01, 0xFF, 0xFF, 0x7F))
	f.Add(append(Marshal(&Ack{SeqNo: 1, Source: "s"}), 0x7F, 0xDE, 0xAD))
	f.Add([]byte{})
	f.Add([]byte{byte(TypeCompound)})
	f.Add([]byte{byte(TypeCompound), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})    // huge count
	f.Add([]byte{byte(TypeAlive), 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // oversize string

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

// FuzzPushPullMatchesView throws arbitrary bytes at the push-pull
// comparison, against one of a few fixed views (the corpus tables, the
// previous release's request table, and the empty table). It must never
// panic or allocate; it may answer true only for bytes DecodePacket
// decodes to exactly one push-pull message whose source is the one
// returned and whose states equal the view; and it must answer true for
// the canonical encoding of such a message.
func FuzzPushPullMatchesView(f *testing.F) {
	prev, _ := hex.DecodeString(metaReqHex)
	msgs, err := DecodePacket(prev)
	if err != nil {
		f.Fatal(err)
	}
	views := append([][]PushPullState{nil, msgs[0].(*PushPullReq).States}, fuzzTables...)
	for _, b := range pushPullSeeds() {
		for v := range views {
			f.Add(b, uint8(v))
		}
	}
	same := func(s PushPullState) PushPullState { return s }

	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		view := views[int(pick)%len(views)]
		source, ok := PushPullMatchesView(data, view, same)
		if allocs := testing.AllocsPerRun(1, func() { PushPullMatchesView(data, view, same) }); allocs != 0 {
			t.Fatalf("comparison allocated %.0f times", allocs)
		}

		msgs, err := DecodePacket(data)
		var src string
		var states []PushPullState
		one := err == nil && len(msgs) == 1 && data[0] != byte(TypeCompound)
		if one {
			switch m := msgs[0].(type) {
			case *PushPullReq:
				src, states = m.Source, m.States
			case *PushPullResp:
				src, states = m.Source, m.States
			default:
				one = false
			}
		}
		equal := one && len(states) == len(view)
		for i := 0; equal && i < len(view); i++ {
			equal = states[i] == view[i]
		}
		if ok && (!equal || string(source) != src) {
			t.Fatalf("matched %x against %+v, but it decodes to %+v (err %v), source %q", data, view, msgs, err, source)
		}
		if equal && !ok && bytes.Equal(Marshal(msgs[0]), data) {
			t.Fatalf("did not match the canonical encoding %x of view %+v", data, view)
		}
	})
}
