package wire

import (
	"encoding/binary"
	"sync"
)

// Unpacker is the decode-side counterpart of Packer: it decodes packets
// into pooled message structs, interned name strings, and reusable
// state scratch, so the steady-state receive path performs no
// allocations. Acquire one per HandlePacket call and Release it once the
// decoded messages have been processed.
//
// Ownership contract: every message returned by Decode — the structs,
// their string fields excepted — is owned by the Unpacker and valid
// only until the next Decode or Release.
// Handlers that need to keep data must copy it out. Only string fields
// are safe to retain as-is: interned strings are immutable and shared.
type Unpacker struct {
	// msgs is the reusable result slice handed back by Decode.
	msgs []Message

	// dec is the reusable per-message decoder: Message.decode is a
	// dynamic call, so a stack decoder would escape and allocate per
	// message.
	dec decoder

	pings    msgScratch[Ping]
	ipings   msgScratch[IndirectPing]
	acks     msgScratch[Ack]
	nacks    msgScratch[Nack]
	suspects msgScratch[Suspect]
	alives   msgScratch[Alive]
	deads    msgScratch[Dead]
	ppreqs   msgScratch[PushPullReq]
	ppresps  msgScratch[PushPullResp]

	// statePool recycles the backing arrays of decoded push-pull tables
	// (the core replays them synchronously and never retains the slice).
	states  [][]PushPullState
	nStates int

	// names interns decoded member names and addresses: a stable cluster
	// has a fixed vocabulary of strings, so after warm-up no string is
	// allocated per packet. It is a direct-mapped table — one candidate
	// slot per name, found by nameSlot with no probing — so it is bounded
	// by construction: a name that misses overwrites its slot, and two
	// live names that share a slot (or a hostile sender's inventions)
	// cost one allocation per decode, never a wrong string, because a
	// hit compares every byte.
	names [1 << nameTableBits]string
}

// nameTableBits sizes the intern table: 2048 slots, 32 KB per unpacker,
// a few times the member count of the largest simulated cluster that
// is measured.
const nameTableBits = 11

// maxInternedNameLen bounds the strings the table keeps alive; longer
// ones are allocated fresh.
const maxInternedNameLen = 128

// nameSlot maps a name to its slot: a multiplicative hash of its last
// eight bytes (numbered names, "node-017", differ at the tail) and its
// length. The load order and multiplier were picked by counting shared
// slots over numbered-name families ("node-%03d", "member-%d",
// "127.0.0.1:%d"); TestNameSlotsOfNumberedNames pins the first.
func nameSlot(b []byte) uint64 {
	var tail uint64
	if len(b) >= 8 {
		tail = binary.BigEndian.Uint64(b[len(b)-8:])
	} else {
		for _, c := range b {
			tail = tail<<8 | uint64(c)
		}
	}
	return ((tail ^ uint64(len(b))<<56) * 0xff51afd7ed558ccd) >> (64 - nameTableBits)
}

// msgScratch is a pointer-stable freelist of decoded message structs of
// one type: take returns a zeroed struct, reusing storage across resets.
type msgScratch[T any] struct {
	items []*T
	next  int
}

func (p *msgScratch[T]) take() *T {
	if p.next == len(p.items) {
		p.items = append(p.items, new(T))
	}
	v := p.items[p.next]
	p.next++
	var zero T
	*v = zero
	return v
}

var unpackerPool = sync.Pool{New: func() any { return new(Unpacker) }}

// AcquireUnpacker returns an Unpacker from the pool.
func AcquireUnpacker() *Unpacker {
	return unpackerPool.Get().(*Unpacker)
}

// Release returns the unpacker to the pool. Messages obtained from
// Decode are invalid afterwards.
func (u *Unpacker) Release() {
	unpackerPool.Put(u)
}

// Decode decodes one packet, unwrapping one level of compound framing
// exactly like DecodePacket, but into pooled storage. The returned
// messages are owned by the unpacker (see the type comment).
func (u *Unpacker) Decode(b []byte) ([]Message, error) {
	u.pings.next = 0
	u.ipings.next = 0
	u.acks.next = 0
	u.nacks.next = 0
	u.suspects.next = 0
	u.alives.next = 0
	u.deads.next = 0
	u.ppreqs.next = 0
	u.ppresps.next = 0
	u.nStates = 0
	msgs, err := decodePacketWith(u, u.msgs[:0], b)
	if err != nil {
		return nil, err
	}
	u.msgs = msgs
	return msgs, nil
}

// takeMessage returns a zeroed pooled message of the given type, or nil
// for unknown/compound types (mirroring newMessage).
func (u *Unpacker) takeMessage(t MsgType) Message {
	switch t {
	case TypePing:
		return u.pings.take()
	case TypeIndirectPing:
		return u.ipings.take()
	case TypeAck:
		return u.acks.take()
	case TypeNack:
		return u.nacks.take()
	case TypeSuspect:
		return u.suspects.take()
	case TypeAlive:
		return u.alives.take()
	case TypeDead:
		return u.deads.take()
	case TypePushPullReq:
		return u.ppreqs.take()
	case TypePushPullResp:
		return u.ppresps.take()
	default:
		return nil
	}
}

// takeStatesSlot returns a pooled, emptied state slice and its slot
// index; the caller stores the grown slice back so the capacity is kept.
func (u *Unpacker) takeStatesSlot() (int, []PushPullState) {
	if u.nStates == len(u.states) {
		u.states = append(u.states, nil)
	}
	slot := u.nStates
	u.nStates++
	s := u.states[slot][:0]
	// Clear retained pointers from the previous decode so stale
	// strings do not outlive their packet via the pool.
	for i := range s[:cap(s)] {
		s[:cap(s)][i] = PushPullState{}
	}
	return slot, s
}

// intern returns the string value of b, reusing a previously decoded
// instance when its slot still holds it.
func (u *Unpacker) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternedNameLen {
		return string(b)
	}
	slot := &u.names[nameSlot(b)]
	if *slot != string(b) { // the comparison does not allocate
		*slot = string(b)
	}
	return *slot
}
