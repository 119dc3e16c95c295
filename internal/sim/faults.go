package sim

import (
	"time"

	"lifeguard/internal/timeutil"
)

// This file holds the fault primitives: deterministic faults layered on
// top of the simulated network, reproducing the degraded-member
// conditions that motivate Lifeguard (slow message processing, process
// stalls, impaired links) rather than only clean crashes. Scenarios
// time them with a script (internal/experiment). All fault randomness
// is drawn from a dedicated RNG stream (Network.faultRNG), and a
// fault-dropped packet still consumes the base delay draw it would have
// consumed anyway, so degradation and link impairments never perturb
// the base latency/loss sequence of unaffected traffic — a run with no
// faults installed is byte-identical to a run without the engine.
// (FailLink partitions consume no draws, like packets to a detached
// member.)

// PauseMode selects what happens to inbound packets while a member is
// paused.
type PauseMode int

const (
	// PauseBuffer queues inbound packets (subject to queueCap
	// tail-drop) for processing after resume — a stopped process whose
	// kernel still accepts datagrams. This is the paper's §V-D anomaly
	// model.
	PauseBuffer PauseMode = iota

	// PauseDrop discards inbound packets while paused — the process (or
	// its host) is gone and the packets bounce. A PauseDrop that is
	// never resumed models a hard crash.
	PauseDrop
)

// LinkFault is an injected impairment for one directed member link,
// layered on top of the base latency model and the global Loss
// setting. Reliable (TCP-modelled) packets are exempt from
// Loss and Duplicate — TCP retransmits lost segments and discards
// duplicate ones — but still subject to Reorder, because TCP cannot
// mask delay (head-of-line blocking on a retransmission).
type LinkFault struct {
	// Loss is the probability an unreliable packet on the link is
	// dropped, on top of the network-wide Loss.
	Loss float64

	// Duplicate is the probability an unreliable packet is delivered
	// twice, the second copy with an independent latency draw.
	Duplicate float64

	// Reorder is the probability a packet is held back by an extra
	// draw from reorderHold, letting packets sent after it overtake it.
	Reorder float64
}

// reorderHold is the extra delay of a reordered packet: long relative
// to LAN latency, so the held packet is genuinely overtaken.
var reorderHold = DelayDist{Base: 10 * time.Millisecond, Jitter: 30 * time.Millisecond}

// SetDegraded puts a member into (or adjusts) processing degradation:
// every inbound packet costs an extra draw from d on top of
// serviceTime, and every timer callback registered through the member's
// NodeClock is deferred by a draw from d when it fires. This models the
// paper's slow member — GC pauses, CPU starvation, a saturated runtime —
// which keeps running but reacts late. A zero d restores healthy
// processing.
func (n *Network) SetDegraded(name string, d DelayDist) {
	if p, ok := n.nodes[name]; ok {
		p.degrade = d
	}
}

// Degraded reports whether the member currently has a processing
// degradation installed.
func (n *Network) Degraded(name string) bool {
	p, ok := n.nodes[name]
	return ok && !p.degrade.IsZero()
}

// Pause stalls a member completely: its protocol loops block (the gate
// reports Blocked), its sends are held in the outbox, and inbound
// packets either queue (PauseBuffer) or are discarded (PauseDrop,
// counted as DropsFault). Pausing a crashed member is a no-op.
func (n *Network) Pause(name string, mode PauseMode) {
	p, ok := n.nodes[name]
	if !ok || p.crashed {
		return
	}
	p.dropInbound = mode == PauseDrop
	n.SetGated(name, true)
}

// Resume releases a paused member: held sends flush, wake callbacks
// run, and any buffered backlog drains at the service rate. Resuming a
// crashed member is a no-op — crashes are sticky.
func (n *Network) Resume(name string) {
	p, ok := n.nodes[name]
	if !ok || p.crashed {
		return
	}
	p.dropInbound = false
	n.SetGated(name, false)
}

// Crash permanently silences a member: inbound is dropped, held sends
// never flush, and every later Pause, Resume or SetGated call on the
// member is ignored — a script that flaps a member it also crashes
// cannot accidentally resurrect it. Crashed reports the state.
func (n *Network) Crash(name string) {
	p, ok := n.nodes[name]
	if !ok {
		return
	}
	n.Pause(name, PauseDrop)
	p.crashed = true
}

// Crashed reports whether the member has been permanently crashed.
func (n *Network) Crashed(name string) bool {
	p, ok := n.nodes[name]
	return ok && p.crashed
}

// SetLinkFault installs (or replaces) the impairment on one directed
// member link. Call for both directions to impair a link symmetrically.
func (n *Network) SetLinkFault(from, to string, f LinkFault) {
	n.linkFaults[n.linkID(from, to)] = f
}

// ClearLinkFault removes the impairment on one directed member link.
func (n *Network) ClearLinkFault(from, to string) {
	delete(n.linkFaults, n.linkID(from, to))
}

// NodeClock is one member's view of the network's virtual clock. It
// implements timeutil.Clock; callbacks registered through it are
// subject to the member's injected processing degradation (a degraded
// member's timers fire late, exactly like its inbound handling). With
// no degradation installed it behaves identically to the shared Clock.
type NodeClock struct {
	net  *Network
	name string

	// port caches the member's attachment, so a timer firing reads the
	// degradation off the Port it holds instead of hashing the name. See
	// attached.
	port *Port
}

var _ timeutil.Clock = (*NodeClock)(nil)

// NodeClock returns the named member's clock. The protocol core of a
// simulated member should be driven by this clock so that SetDegraded
// can slow its timers.
func (n *Network) NodeClock(name string) *NodeClock {
	return &NodeClock{net: n, name: name}
}

// Now implements timeutil.Clock.
func (c *NodeClock) Now() time.Time { return c.net.clock.Now() }

// attached returns the Port currently attached under the clock's name,
// or nil when there is none. The held Port answers until it is
// detached; only then (or before the first Attach — a clock may be made
// first) is the name resolved again, so a clock that outlives a Detach
// and re-Attach of its name follows the replacement, as a lookup per
// firing would.
func (c *NodeClock) attached() *Port {
	if c.port == nil || c.port.detached {
		c.port = c.net.nodes[c.name]
	}
	return c.port
}

// Gated reports Network.Gated for the clock's name, read off the held
// Port (see attached) instead of by a lookup on every loop tick.
func (c *NodeClock) Gated() bool {
	p := c.attached()
	return p != nil && p.gated
}

// AfterFunc implements timeutil.Clock. When the timer fires while the
// member is degraded, f is deferred by one draw from the degradation
// distribution; Stop and Reset cancel the deferred stage too.
func (c *NodeClock) AfterFunc(d time.Duration, f func()) timeutil.Timer {
	t := &nodeTimer{clock: c, f: f}
	t.ev.fn, t.ev.home = t.fire, c.net.sched
	c.net.sched.arm(d, &t.ev)
	return t
}

// nodeTimer is a NodeClock timer. It owns its scheduler event and the
// one callback bound to it for life, so re-arming allocates nothing.
type nodeTimer struct {
	clock *NodeClock
	f     func()
	ev    Event

	// deferred marks the pending stage as the degradation-deferred one:
	// the timer proper has fired, and ev now counts down the member's
	// extra processing delay. Meaningful only while ev is pending; every
	// arm starts by clearing it.
	deferred bool
}

// fire is the event callback for both stages: the timer proper defers
// itself if the member is degraded just then, and otherwise, like the
// deferred stage, runs f.
func (t *nodeTimer) fire() {
	if !t.deferred {
		if p := t.clock.attached(); p != nil && !p.degrade.IsZero() {
			t.deferred = true
			t.ev.Reset(p.degrade.sample(t.clock.net.faultRNG))
			return
		}
	}
	t.deferred = false
	t.f()
}

// Stop implements timeutil.Timer.
func (t *nodeTimer) Stop() bool { return t.ev.Stop() }

// Reset implements timeutil.Timer.
func (t *nodeTimer) Reset(d time.Duration) bool {
	t.deferred = false
	return t.ev.Reset(d)
}
