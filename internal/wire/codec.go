package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Codec limits. MTU mirrors memberlist's default UDP packet budget; gossip
// piggybacking packs messages up to this size.
const (
	// MTU is the maximum packet size produced by EncodePacket.
	MTU = 1400

	// maxStringLen bounds decoded strings to keep a corrupt length prefix
	// from allocating unbounded memory.
	maxStringLen = 1 << 12

	// maxStates bounds the number of push-pull entries decoded from one
	// message.
	maxStates = 1 << 16
)

// Codec errors.
var (
	// ErrTruncated reports a message shorter than its encoding requires.
	ErrTruncated = errors.New("wire: truncated message")

	// ErrUnknownType reports an unrecognized message type tag.
	ErrUnknownType = errors.New("wire: unknown message type")

	// ErrOversize reports a string or collection exceeding codec limits.
	ErrOversize = errors.New("wire: oversize field")
)

// encoder appends primitive values to a buffer. Methods never fail;
// bounds are enforced at decode time.
type encoder struct {
	buf []byte
}

func (e *encoder) byte(v uint8)    { e.buf = append(e.buf, v) }
func (e *encoder) bool(v bool)     { e.byte(boolByte(v)) }
func (e *encoder) uint32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *encoder) string(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func boolByte(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

// decoder consumes primitive values from a buffer, latching the first
// error (errors-are-values style so message decoders stay linear). When
// u is non-nil the decoder draws strings, message structs and state
// slices from the Unpacker's pooled scratch instead of allocating; a
// nil u decodes standalone with fresh allocations.
type decoder struct {
	buf []byte
	err error
	u   *Unpacker
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) byte() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail(ErrTruncated)
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) uint32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 4 {
		d.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// field consumes one length-prefixed field and returns its bytes,
// which alias the packet.
func (d *decoder) field() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > maxStringLen {
		d.fail(ErrOversize)
		return nil
	}
	if uint64(len(d.buf)) < n {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) string() string {
	b := d.field()
	if d.u != nil {
		return d.u.intern(b)
	}
	return string(b)
}

// Per-message encodings. Field order is part of the wire format. A
// decoder reads its fixed fields and ignores whatever follows them in
// the message's bytes: earlier releases appended an optional
// coordinate block to pings and acks, and such a tail still decodes.
//
// Alive and each push-pull state end with a length-prefixed field where
// earlier releases carried member metadata. The encoder writes it empty
// (one zero byte), and the decoder skips whatever a peer put there,
// under the bounds of a string, so packets of either release decode.

func (m *Ping) encode(e *encoder) {
	e.uint32(m.SeqNo)
	e.string(m.Target)
	e.string(m.Source)
}

func (m *Ping) decode(d *decoder) {
	m.SeqNo = d.uint32()
	m.Target = d.string()
	m.Source = d.string()
}

func (m *IndirectPing) encode(e *encoder) {
	e.uint32(m.SeqNo)
	e.string(m.Target)
	e.string(m.Source)
	e.bool(m.WantNack)
}

func (m *IndirectPing) decode(d *decoder) {
	m.SeqNo = d.uint32()
	m.Target = d.string()
	m.Source = d.string()
	m.WantNack = d.bool()
}

func (m *Ack) encode(e *encoder) {
	e.uint32(m.SeqNo)
	e.string(m.Source)
}

func (m *Ack) decode(d *decoder) {
	m.SeqNo = d.uint32()
	m.Source = d.string()
}

func (m *Nack) encode(e *encoder) {
	e.uint32(m.SeqNo)
	e.string(m.Source)
}

func (m *Nack) decode(d *decoder) {
	m.SeqNo = d.uint32()
	m.Source = d.string()
}

func (m *Suspect) encode(e *encoder) {
	e.uvarint(m.Incarnation)
	e.string(m.Node)
	e.string(m.From)
}

func (m *Suspect) decode(d *decoder) {
	m.Incarnation = d.uvarint()
	m.Node = d.string()
	m.From = d.string()
}

func (m *Alive) encode(e *encoder) {
	e.uvarint(m.Incarnation)
	e.string(m.Node)
	e.string(m.Addr)
	e.byte(0)
}

func (m *Alive) decode(d *decoder) {
	m.Incarnation = d.uvarint()
	m.Node = d.string()
	m.Addr = d.string()
	d.field()
}

func (m *Dead) encode(e *encoder) {
	e.uvarint(m.Incarnation)
	e.string(m.Node)
	e.string(m.From)
}

func (m *Dead) decode(d *decoder) {
	m.Incarnation = d.uvarint()
	m.Node = d.string()
	m.From = d.string()
}

func encodeStates(e *encoder, states []PushPullState) {
	e.uvarint(uint64(len(states)))
	for i := range states {
		s := &states[i]
		e.string(s.Name)
		e.string(s.Addr)
		e.uvarint(s.Incarnation)
		e.byte(s.State)
		e.byte(0)
	}
}

func decodeStates(d *decoder) []PushPullState {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > maxStates {
		d.fail(ErrOversize)
		return nil
	}
	if n == 0 {
		return nil // preserve nil round trips (nil is a valid slice)
	}
	var states []PushPullState
	slot := -1
	if d.u != nil {
		slot, states = d.u.takeStatesSlot()
	} else {
		states = make([]PushPullState, 0, n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		var s PushPullState
		s.Name = d.string()
		s.Addr = d.string()
		s.Incarnation = d.uvarint()
		s.State = d.byte()
		d.field()
		states = append(states, s)
	}
	if slot >= 0 {
		// Hand the (possibly grown) backing array back for reuse.
		d.u.states[slot] = states
	}
	return states
}

func (m *PushPullReq) encode(e *encoder) {
	e.string(m.Source)
	e.bool(m.Join)
	encodeStates(e, m.States)
}

func (m *PushPullReq) decode(d *decoder) {
	m.Source = d.string()
	m.Join = d.bool()
	m.States = decodeStates(d)
}

func (m *PushPullResp) encode(e *encoder) {
	e.string(m.Source)
	encodeStates(e, m.States)
}

func (m *PushPullResp) decode(d *decoder) {
	m.Source = d.string()
	m.States = decodeStates(d)
}

// PushPullMatchesView reports whether b is one bare PushPullReq or
// PushPullResp whose table equals view: as many entries, and entry by
// entry in order the name, address, incarnation and state of
// state(view[i]), each with an empty metadata field. It reads b with
// the decoder's own bounds checks, so true means DecodePacket decodes b
// to exactly that one message with exactly those states. It stops at
// the first difference and allocates nothing. source is the message's
// Source field; it aliases b.
func PushPullMatchesView[T any](b []byte, view []T, state func(T) PushPullState) (source []byte, ok bool) {
	if len(b) == 0 || (MsgType(b[0]) != TypePushPullReq && MsgType(b[0]) != TypePushPullResp) {
		return nil, false
	}
	d := decoder{buf: b[1:]}
	source = d.field()
	if MsgType(b[0]) == TypePushPullReq {
		d.bool() // Join: the receiver's handling does not depend on it
	}
	if n := d.uvarint(); d.err != nil || n > maxStates || n != uint64(len(view)) {
		return nil, false
	}
	for _, v := range view {
		s := state(v)
		if string(d.field()) != s.Name || string(d.field()) != s.Addr ||
			d.uvarint() != s.Incarnation || d.byte() != s.State || len(d.field()) != 0 || d.err != nil {
			return nil, false
		}
	}
	return source, true
}

// encodeInto encodes m (type tag included) through a concrete-type
// dispatch: calling m.encode(&e) through the Message interface makes
// the encoder escape to the heap, costing an allocation per message on
// the send path, while the static calls below keep it on the stack.
// The tag is read through the concrete type too, and the default case
// does not format m: a dynamic m.Type() or a %T would make m itself
// escape, and with it every message struct a caller builds to send.
func encodeInto(e *encoder, m Message) {
	switch v := m.(type) {
	case *Ping:
		e.byte(uint8(v.Type()))
		v.encode(e)
	case *IndirectPing:
		e.byte(uint8(v.Type()))
		v.encode(e)
	case *Ack:
		e.byte(uint8(v.Type()))
		v.encode(e)
	case *Nack:
		e.byte(uint8(v.Type()))
		v.encode(e)
	case *Suspect:
		e.byte(uint8(v.Type()))
		v.encode(e)
	case *Alive:
		e.byte(uint8(v.Type()))
		v.encode(e)
	case *Dead:
		e.byte(uint8(v.Type()))
		v.encode(e)
	case *PushPullReq:
		e.byte(uint8(v.Type()))
		v.encode(e)
	case *PushPullResp:
		e.byte(uint8(v.Type()))
		v.encode(e)
	default:
		// Message is sealed (unexported methods), so the switch above is
		// exhaustive. A dynamic m.encode(e) fallback here would force
		// the encoder to escape again on every path.
		panic("wire: cannot encode a message of unknown type")
	}
}

// Marshal encodes a single message, including its type tag.
func Marshal(m Message) []byte {
	e := encoder{buf: make([]byte, 0, 64)}
	encodeInto(&e, m)
	return e.buf
}

// AppendMarshal appends the encoding of m (including type tag) to dst and
// returns the extended slice.
func AppendMarshal(dst []byte, m Message) []byte {
	e := encoder{buf: dst}
	encodeInto(&e, m)
	return e.buf
}

// unmarshalWith decodes one bare message, drawing the struct and its
// fields from u's pools when u is non-nil.
func unmarshalWith(u *Unpacker, b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	var m Message
	if u != nil {
		m = u.takeMessage(MsgType(b[0]))
	} else {
		m = newMessage(MsgType(b[0]))
	}
	if m == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, b[0])
	}
	var d *decoder
	if u != nil {
		d = &u.dec
		*d = decoder{buf: b[1:], u: u}
	} else {
		d = &decoder{buf: b[1:]}
	}
	m.decode(d)
	if d.err != nil {
		return nil, fmt.Errorf("decoding %s: %w", m.Type(), d.err)
	}
	return m, nil
}

// EncodePacket packs one or more messages into a single packet. A single
// message is encoded bare; multiple messages are wrapped in a compound
// message: tag, count (uvarint), then length-prefixed encodings.
//
// The caller is responsible for keeping the total under MTU. This is the
// unpooled reference encoder; the send paths use Packer.
func EncodePacket(msgs []Message) []byte {
	switch len(msgs) {
	case 0:
		return nil
	case 1:
		return Marshal(msgs[0])
	}
	e := encoder{buf: make([]byte, 0, 256)}
	e.byte(uint8(TypeCompound))
	e.uvarint(uint64(len(msgs)))
	for _, m := range msgs {
		body := Marshal(m)
		e.uvarint(uint64(len(body)))
		e.buf = append(e.buf, body...)
	}
	return e.buf
}

// DecodePacket decodes a packet into its constituent messages, unwrapping
// one level of compound framing. Nested compound messages are rejected.
func DecodePacket(b []byte) ([]Message, error) {
	return decodePacketWith(nil, nil, b)
}

// decodePacketWith is DecodePacket with optional pooled scratch: with a
// non-nil Unpacker, message structs, strings and state slices come from its pools, and decoded messages are appended to msgs
// (the Unpacker's reusable slice).
func decodePacketWith(u *Unpacker, msgs []Message, b []byte) ([]Message, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	if MsgType(b[0]) != TypeCompound {
		m, err := unmarshalWith(u, b)
		if err != nil {
			return nil, err
		}
		return append(msgs, m), nil
	}
	d := decoder{buf: b[1:], u: u}
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if n > maxStates {
		return nil, ErrOversize
	}
	if n == 0 {
		// EncodePacket never produces an empty compound (zero messages
		// encode as no packet at all); accepting one would break
		// decode/re-encode symmetry. Found by FuzzDecodePacket.
		return nil, ErrTruncated
	}
	if msgs == nil {
		msgs = make([]Message, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		sz := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if sz > math.MaxInt32 || uint64(len(d.buf)) < sz {
			return nil, ErrTruncated
		}
		body := d.buf[:sz]
		d.buf = d.buf[sz:]
		if len(body) > 0 && MsgType(body[0]) == TypeCompound {
			return nil, fmt.Errorf("%w: nested compound", ErrUnknownType)
		}
		m, err := unmarshalWith(u, body)
		if err != nil {
			return nil, fmt.Errorf("compound part %d: %w", i, err)
		}
		msgs = append(msgs, m)
	}
	return msgs, nil
}

// CompoundOverhead returns the framing bytes added per message when it is
// packed into a compound packet (the uvarint length prefix; 2 bytes covers
// every message under MTU plus slack for the count).
const CompoundOverhead = 2
