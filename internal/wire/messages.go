// Package wire defines the protocol messages exchanged by SWIM/Lifeguard
// members and a compact binary codec for them.
//
// The message set is the one described in the Lifeguard paper (§III, §IV):
// the failure-detector messages ping, ping-req (indirect ping), ack and
// nack; the dissemination messages suspect, alive and dead (SWIM's confirm
// is renamed dead, following memberlist); and the push-pull anti-entropy
// exchange. Multiple messages are packed into a single UDP-sized packet as
// a compound message, which is how gossip updates piggyback on
// failure-detector traffic.
package wire

import "fmt"

// MsgType identifies the concrete type of a protocol message.
type MsgType uint8

// Message type tags. These values appear on the wire; do not reorder.
const (
	// TypePing is a direct liveness probe.
	TypePing MsgType = iota + 1
	// TypeIndirectPing asks a third party to probe a target (SWIM's
	// ping-req).
	TypeIndirectPing
	// TypeAck answers a ping, directly or via an indirect relay.
	TypeAck
	// TypeNack is Lifeguard's negative acknowledgement for indirect
	// probes (§IV-A): the relay answers nack when the target has not
	// acked within 80% of the probe timeout.
	TypeNack
	// TypeSuspect accuses a member of having failed a probe.
	TypeSuspect
	// TypeAlive declares a member alive at an incarnation; it both joins
	// new members and refutes suspicion.
	TypeAlive
	// TypeDead declares a member dead (SWIM's confirm).
	TypeDead
	// TypePushPullReq carries the sender's full membership state and
	// requests the receiver's in return (memberlist anti-entropy).
	TypePushPullReq
	// TypePushPullResp carries the responder's full membership state.
	TypePushPullResp
	// TypeCompound wraps several messages in one packet.
	TypeCompound
)

// String returns the lower-case protocol name of the message type.
func (t MsgType) String() string {
	switch t {
	case TypePing:
		return "ping"
	case TypeIndirectPing:
		return "ping-req"
	case TypeAck:
		return "ack"
	case TypeNack:
		return "nack"
	case TypeSuspect:
		return "suspect"
	case TypeAlive:
		return "alive"
	case TypeDead:
		return "dead"
	case TypePushPullReq:
		return "push-pull-req"
	case TypePushPullResp:
		return "push-pull-resp"
	case TypeCompound:
		return "compound"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(t))
	}
}

// Message is implemented by every protocol message.
type Message interface {
	// Type returns the wire tag of the message.
	Type() MsgType

	encode(e *encoder)
	decode(d *decoder)
}

// Ping is a direct liveness probe from Source to Target.
type Ping struct {
	// SeqNo correlates the eventual Ack with this probe.
	SeqNo uint32
	// Target is the name of the member being probed. Carrying the
	// intended target lets a mis-addressed member refuse the probe.
	Target string
	// Source is the name of the probing member, so the target can
	// address the ack (and any piggybacked refutation) back.
	Source string
}

// Type implements Message.
func (*Ping) Type() MsgType { return TypePing }

// IndirectPing asks the receiver to probe Target on behalf of Source
// (SWIM's ping-req).
type IndirectPing struct {
	// SeqNo is the originator's probe sequence number; the relayed ack
	// and nack carry it back.
	SeqNo uint32
	// Target is the member to probe.
	Target string
	// Source is the member that initiated the indirect probe.
	Source string
	// WantNack asks the relay to send a Nack if the target does not ack
	// in time. Set when Lifeguard's LHA-Probe component is enabled.
	WantNack bool
}

// Type implements Message.
func (*IndirectPing) Type() MsgType { return TypeIndirectPing }

// Ack answers a Ping. For indirect probes the relay rewrites SeqNo to the
// originator's sequence number and forwards it.
type Ack struct {
	// SeqNo echoes the probe's sequence number.
	SeqNo uint32
	// Source is the member that produced the ack (the probe target).
	Source string
}

// Type implements Message.
func (*Ack) Type() MsgType { return TypeAck }

// Nack tells the originator of an indirect probe that the relay has not
// heard from the target yet (Lifeguard §IV-A). Receiving the nack proves
// the relay path is live, so a missing nack counts against the
// originator's own local health.
type Nack struct {
	// SeqNo echoes the originator's probe sequence number.
	SeqNo uint32
	// Source is the relaying member.
	Source string
}

// Type implements Message.
func (*Nack) Type() MsgType { return TypeNack }

// Suspect accuses Node of having failed a probe.
type Suspect struct {
	// Incarnation is the accused member's incarnation as known to the
	// accuser. The accusation only applies at or above this incarnation.
	Incarnation uint64
	// Node is the accused member.
	Node string
	// From is the accusing member. Distinct From values constitute
	// independent suspicions for LHA-Suspicion (§IV-B).
	From string
}

// Type implements Message.
func (*Suspect) Type() MsgType { return TypeSuspect }

// Alive declares Node alive at Incarnation. It announces joins and, when
// gossiped by the suspected member itself with a higher incarnation,
// refutes suspicion.
type Alive struct {
	// Incarnation is the member's current incarnation.
	Incarnation uint64
	// Node is the member declared alive.
	Node string
	// Addr is the member's transport address.
	Addr string
}

// Type implements Message.
func (*Alive) Type() MsgType { return TypeAlive }

// Dead declares Node dead at Incarnation (SWIM's confirm message).
type Dead struct {
	// Incarnation is the incarnation at which the member was declared
	// dead.
	Incarnation uint64
	// Node is the member declared dead.
	Node string
	// From is the declaring member. When From == Node the member is
	// announcing its own graceful leave.
	From string
}

// Type implements Message.
func (*Dead) Type() MsgType { return TypeDead }

// PushPullState is one member's entry in a push-pull exchange.
type PushPullState struct {
	// Name is the member's name.
	Name string
	// Addr is the member's transport address.
	Addr string
	// Incarnation is the member's incarnation.
	Incarnation uint64
	// State is the sender's view of the member: one of the StateX
	// constants defined by the core package (alive, suspect, dead,
	// left), encoded as a byte.
	State uint8
}

// PushPullReq opens an anti-entropy exchange, carrying the sender's full
// membership table.
type PushPullReq struct {
	// Source is the requesting member.
	Source string
	// Join marks the request as part of a cluster join. The sender sets
	// it, as previous releases did, so a join request keeps its bytes
	// (compat_test.go pins them); no receiver reads it: a join request
	// is merged and answered like any other.
	Join bool
	// States is the sender's full membership table.
	States []PushPullState
}

// Type implements Message.
func (*PushPullReq) Type() MsgType { return TypePushPullReq }

// PushPullResp answers a PushPullReq with the responder's table.
type PushPullResp struct {
	// Source is the responding member.
	Source string
	// States is the responder's full membership table.
	States []PushPullState
}

// Type implements Message.
func (*PushPullResp) Type() MsgType { return TypePushPullResp }

// newMessage returns a zero message of the given type, or nil if the type
// is unknown or not directly instantiable (compound).
func newMessage(t MsgType) Message {
	switch t {
	case TypePing:
		return &Ping{}
	case TypeIndirectPing:
		return &IndirectPing{}
	case TypeAck:
		return &Ack{}
	case TypeNack:
		return &Nack{}
	case TypeSuspect:
		return &Suspect{}
	case TypeAlive:
		return &Alive{}
	case TypeDead:
		return &Dead{}
	case TypePushPullReq:
		return &PushPullReq{}
	case TypePushPullResp:
		return &PushPullResp{}
	default:
		return nil
	}
}
