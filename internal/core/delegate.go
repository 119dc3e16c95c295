package core

// EventDelegate receives membership change notifications, the unit in
// which the paper counts failure events (a "false positive" is a
// NotifyDead about a healthy member).
//
// Callbacks are invoked synchronously from the protocol core with its
// internal lock held: they must be fast and must not call back into the
// Node. Record and return; do any heavy work elsewhere.
type EventDelegate interface {
	// NotifyJoin fires when a member becomes alive in the local view:
	// on first sight, or on recovery from the dead/left state.
	NotifyJoin(m Member)

	// NotifySuspect fires when a member enters the suspected state.
	NotifySuspect(m Member)

	// NotifyAlive fires when a suspicion is refuted (suspect → alive)
	// without the member having been declared dead.
	NotifyAlive(m Member)

	// NotifyDead fires when a member is declared dead or announces a
	// graceful leave — the paper's failure event.
	NotifyDead(m Member)

	// NotifyUpdate fires when an alive member's address changes
	// without a liveness transition.
	NotifyUpdate(m Member)
}

// NopEvents is an EventDelegate that ignores all notifications. Embed it
// to implement only the callbacks of interest.
type NopEvents struct{}

var _ EventDelegate = NopEvents{}

// NotifyJoin implements EventDelegate.
func (NopEvents) NotifyJoin(Member) {}

// NotifySuspect implements EventDelegate.
func (NopEvents) NotifySuspect(Member) {}

// NotifyAlive implements EventDelegate.
func (NopEvents) NotifyAlive(Member) {}

// NotifyDead implements EventDelegate.
func (NopEvents) NotifyDead(Member) {}

// NotifyUpdate implements EventDelegate.
func (NopEvents) NotifyUpdate(Member) {}
