package core

import (
	"time"

	"lifeguard/internal/metrics"
	"lifeguard/internal/suspicion"
	"lifeguard/internal/wire"
)

// handleSuspectLocked processes a suspect message: refute it if it is
// about us, confirm an existing suspicion, or open a new one.
func (n *Node) handleSuspectLocked(s *wire.Suspect) {
	if s.Node == n.cfg.Name {
		n.refuteLocked(s.Incarnation)
		return
	}
	m, ok := n.members[s.Node]
	if !ok {
		return
	}
	n.suspectNodeLocked(m, s)
}

// suspectNodeLocked applies a suspicion (local probe failure or gossiped
// accusation) to a member.
func (n *Node) suspectNodeLocked(m *memberState, s *wire.Suspect) {
	if s.Incarnation < m.Incarnation {
		return // stale accusation, already refuted
	}
	switch m.State {
	case StateDead, StateLeft:
		return
	case StateSuspect:
		// An independent suspicion about an already-suspected member.
		if m.susp == nil {
			return
		}
		confirmed := m.susp.Confirm(s.From)
		// LHA-Suspicion re-gossips the first K independent suspicions to
		// make confirmations prevalent cluster-wide (§IV-B). Baseline
		// SWIM gossips only the first accusation it hears.
		if confirmed && n.cfg.LHASuspicion {
			n.broadcastLocked(m.Name, s)
		}
		return
	}

	// Alive → suspect.
	m.State = StateSuspect
	m.StateChange = n.cfg.Clock.Now()
	n.startSuspicionLocked(m, s.From, s.Incarnation)

	n.broadcastLocked(m.Name, s)
	n.eventSuspectLocked(m)
}

// startSuspicionLocked arms m's suspicion timer, opened by accuser about
// incarnation inc: K confirmations shrink it from Max toward Min under
// LHA-Suspicion; baseline SWIM runs a fixed Min timeout.
func (n *Node) startSuspicionLocked(m *memberState, accuser string, inc uint64) {
	k := 0
	if n.cfg.LHASuspicion {
		k = suspicionK
	}
	min := SuspicionMin(n.cfg.SuspicionAlpha, n.aliveCount, n.cfg.ProbeInterval)
	max := min
	if n.cfg.LHASuspicion {
		max = time.Duration(n.cfg.SuspicionBeta * float64(min))
	}
	m.susp = suspicion.New(n.cfg.Clock, accuser, k, min, max, func(int) {
		n.suspicionExpired(m, inc)
	})
}

// applyMergedSuspicionLocked applies a suspicion learned through
// push-pull anti-entropy. Unlike a gossiped suspect message it carries no
// accuser: it starts a suspicion timer if the member was thought alive
// (so a missed suspicion still converges to a failure), but never
// confirms an existing one and is not re-gossiped.
func (n *Node) applyMergedSuspicionLocked(name string, inc uint64) {
	if name == n.cfg.Name {
		n.refuteLocked(inc)
		return
	}
	m, ok := n.members[name]
	if !ok || m.State != StateAlive || inc < m.Incarnation {
		return
	}
	m.State = StateSuspect
	m.StateChange = n.cfg.Clock.Now()
	n.startSuspicionLocked(m, n.cfg.Name, inc)
	n.eventSuspectLocked(m)
}

// suspicionExpired is the suspicion timer callback: declare the member
// dead. It runs on the clock even while the member is blocked by an
// anomaly — in memberlist this is a time.AfterFunc that only mutates
// local state and enqueues a broadcast, so a stalled process still
// executes it. This is the mechanism behind false positives at slow
// members (docs/ARCHITECTURE.md §Data flow). m is the record the
// suspicion was opened on.
func (n *Node) suspicionExpired(m *memberState, inc uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.shutdown {
		return
	}
	if m.State != StateSuspect {
		return
	}
	if m.Incarnation > inc {
		// Refuted while the timer was firing.
		return
	}
	d := &wire.Dead{Incarnation: m.Incarnation, Node: m.Name, From: n.cfg.Name}
	n.deadNodeLocked(m, d)
}

// handleDeadLocked processes a dead message.
func (n *Node) handleDeadLocked(d *wire.Dead) {
	if d.Node == n.cfg.Name {
		// Someone declared us dead. Refute, unless we are leaving.
		if !n.leaving {
			n.refuteLocked(d.Incarnation)
		}
		return
	}
	m, ok := n.members[d.Node]
	if !ok {
		return
	}
	n.deadNodeLocked(m, d)
}

// deadNodeLocked marks a member dead (or left, when self-announced) and
// re-gossips the declaration. Dead members are retained for push-pull
// exchange and late gossip (§III-B) until tombstoneTTL has passed
// (localStatesLocked).
func (n *Node) deadNodeLocked(m *memberState, d *wire.Dead) {
	if d.Incarnation < m.Incarnation {
		return // stale declaration, already refuted
	}
	switch m.State {
	case StateLeft:
		return // terminal, never downgraded
	case StateDead:
		// The member's own leave replaces a death this view already
		// holds, so dead and left holders converge on left. The record
		// is out of the alive count and the probe schedule and its
		// NotifyDead was delivered; only the label changes.
		if d.From == m.Name {
			m.Incarnation = d.Incarnation
			m.State = StateLeft
			m.StateChange = n.cfg.Clock.Now()
			n.broadcastLocked(m.Name, d)
		}
		return
	}

	if n.cfg.Telemetry != nil && m.State == StateSuspect {
		// A suspicion lifecycle resolving in death: how long the member
		// stayed suspected in this view before being declared dead.
		n.cfg.Telemetry.RecordSuspicion(m.Name, n.cfg.Clock.Now().Sub(m.StateChange), true)
	}
	if m.susp != nil {
		m.susp.Stop()
		m.susp = nil
	}
	if m.State == StateAlive || m.State == StateSuspect {
		n.aliveCount--
	}
	m.Incarnation = d.Incarnation
	if d.From == m.Name {
		m.State = StateLeft
	} else {
		m.State = StateDead
	}
	m.StateChange = n.cfg.Clock.Now()
	n.removeProbeTargetLocked(m)

	n.broadcastLocked(m.Name, d)
	n.eventDeadLocked(m)
}

// handleAliveLocked processes an alive message: add a new member, update
// an incarnation, or clear a suspicion/death (strictly newer incarnation
// required, SWIM §4.2).
func (n *Node) handleAliveLocked(a *wire.Alive) {
	if a.Node == n.cfg.Name {
		// Echo of our own announcement, possibly stale. Only the member
		// itself increments its incarnation, so nothing can be newer.
		return
	}

	m, ok := n.members[a.Node]
	if !ok {
		// New member. Decoded strings are interned and immutable, so
		// storing them verbatim is safe.
		m = &memberState{probeSlot: -1, Member: Member{
			Name:        a.Node,
			Addr:        a.Addr,
			Incarnation: a.Incarnation,
			State:       StateAlive,
			StateChange: n.cfg.Clock.Now(),
		}}
		n.members[a.Node] = m
		n.sortedInsertLocked(m)
		n.roster = append(n.roster, m)
		n.aliveCount++
		n.insertProbeTargetLocked(m)
		n.broadcastLocked(a.Node, a)
		n.eventJoinLocked(m)
		return
	}

	if a.Incarnation <= m.Incarnation {
		// Not strictly newer: no news for an alive member, and it cannot
		// override suspect/dead (SWIM §4.2 precedence).
		return
	}

	// Strictly newer incarnation: the member is alive.
	prev := m.State
	m.Incarnation = a.Incarnation
	if a.Addr != "" && a.Addr != m.Addr {
		m.Addr = a.Addr
		if m.State == StateAlive {
			n.eventUpdateLocked(m)
		}
	}
	if m.State != StateAlive {
		if m.susp != nil {
			m.susp.Stop()
			m.susp = nil
		}
		suspectedSince := m.StateChange
		m.State = StateAlive
		m.StateChange = n.cfg.Clock.Now()
		switch prev {
		case StateSuspect:
			// Suspect members already count toward aliveCount; no
			// adjustment here.
			if n.cfg.Telemetry != nil {
				// A suspicion lifecycle resolving in refutation.
				n.cfg.Telemetry.RecordSuspicion(m.Name, m.StateChange.Sub(suspectedSince), false)
			}
			n.eventAliveLocked(m)
		case StateDead, StateLeft:
			n.aliveCount++
			n.insertProbeTargetLocked(m)
			n.eventJoinLocked(m)
		}
	}
	n.broadcastLocked(a.Node, a)
}

// refuteLocked answers an accusation about the local member by jumping
// past the claimed incarnation and gossiping a fresh alive. Having to
// refute is evidence of local slowness, so the LHM is charged (§IV-A).
func (n *Node) refuteLocked(claimedInc uint64) {
	if claimedInc < n.incarnation {
		// The accusation is older than our current announcement; the
		// existing alive broadcast already refutes it.
		return
	}
	n.incarnation = claimedInc + 1
	if n.self != nil {
		n.self.Incarnation = n.incarnation
	}
	n.count(metrics.CounterRefutes)
	n.adjustLHMLocked(lhmRefute)
	n.broadcastLocked(n.cfg.Name, n.selfAliveLocked())
}
