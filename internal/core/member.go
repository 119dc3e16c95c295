package core

import (
	"time"

	"lifeguard/internal/suspicion"
)

// State is a member's liveness state in the local view.
type State uint8

// Member states. Values appear in push-pull exchanges; do not reorder.
const (
	// StateAlive means the member is believed healthy.
	StateAlive State = iota + 1

	// StateSuspect means the member failed a probe and its suspicion
	// timer is running.
	StateSuspect

	// StateDead means the member was declared failed.
	StateDead

	// StateLeft means the member announced a graceful leave.
	StateLeft
)

// String returns the lower-case state name.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateLeft:
		return "left"
	default:
		return "unknown"
	}
}

// Member is a snapshot of one member's entry in the local membership
// view.
type Member struct {
	// Name is the member's unique name.
	Name string

	// Addr is the member's transport address.
	Addr string

	// Incarnation is the member's latest known incarnation number.
	Incarnation uint64

	// State is the member's liveness state.
	State State

	// StateChange is when the state last changed, on the node's clock.
	StateChange time.Time
}

// memberState is the node's mutable record for one member.
type memberState struct {
	Member

	// probeSlot is the member's current slot in Node.probeList, or -1
	// when it is not scheduled (self, dead, left). It replaces the old
	// name-keyed position map for the probe schedule's O(1) swap
	// insert/remove operations.
	probeSlot int

	// susp is the running suspicion timer while State == StateSuspect.
	susp *suspicion.Suspicion
}
