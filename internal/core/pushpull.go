package core

import (
	"slices"
	"strings"
	"sync"
	"time"

	"lifeguard/internal/wire"
)

// sortedInsertLocked files a newly created record into sortedMembers at
// its name's position: O(log n) search plus an O(n) move, paid once per
// member arrival instead of an allocate-and-sort of the whole table on
// every push-pull exchange. Names are unique: the caller has just missed
// in n.members, and a reaped record leaves sortedMembers with its map
// entry (localStatesLocked).
func (n *Node) sortedInsertLocked(m *memberState) {
	i, _ := slices.BinarySearchFunc(n.sortedMembers, m.Name,
		func(s *memberState, name string) int { return strings.Compare(s.Name, name) })
	n.sortedMembers = slices.Insert(n.sortedMembers, i, m)
}

// statesPool holds the process's spare push-pull snapshot tables, shared
// by every Node. A table is out of the pool only from localStatesLocked
// to the encoding of the message that carries it (sendStatesLocked), so
// a node holds no table between exchanges, and the pool holds at most as
// many tables as exchanges were ever encoded at once. Every slot of a
// pooled table is zero: no member name outlives its exchange.
// It is a free list rather than a sync.Pool so that what it holds is
// exactly that bound, and tests can inspect every table in it.
var statesPool struct {
	sync.Mutex
	free [][]wire.PushPullState
}

// takeStates returns an empty table from the pool, or nil when the pool
// is empty (append then allocates it).
func takeStates() []wire.PushPullState {
	statesPool.Lock()
	defer statesPool.Unlock()
	n := len(statesPool.free)
	if n == 0 {
		return nil
	}
	states := statesPool.free[n-1]
	statesPool.free[n-1] = nil
	statesPool.free = statesPool.free[:n-1]
	return states
}

// putStates clears a table and returns it to the pool. Slots past
// len(states) are already zero: every slot ever filled was inside the
// length of some earlier table that putStates cleared.
func putStates(states []wire.PushPullState) {
	clear(states)
	statesPool.Lock()
	statesPool.free = append(statesPool.free, states[:0])
	statesPool.Unlock()
}

// localStatesLocked snapshots the membership table, including self and
// the retained dead, for a push-pull exchange. The table is in ascending
// name order so the wire encoding — and therefore the receiver's merge
// order — is deterministic; the order comes for free from the
// incrementally maintained sorted roster (sortedInsertLocked).
//
// The same walk is the member table's only way out: it drops each
// non-self dead or left record whose state is older than tombstoneTTL
// from members, sortedMembers and roster, and does not send it. The
// survivors keep their order and no RNG draw is taken, so same-seed runs
// stay reproducible. Nothing still acts on a dropped record: it left the
// probe schedule and lost its suspicion timer at its death, and a round
// or relay still holding it finds it dead.
//
// The returned table is taken from statesPool; the caller hands it to
// sendStatesLocked, which returns it.
func (n *Node) localStatesLocked() []wire.PushPullState {
	states := takeStates()
	now := n.cfg.Clock.Now()
	kept := n.sortedMembers[:0]
	for _, m := range n.sortedMembers {
		if m != n.self && (m.State == StateDead || m.State == StateLeft) && now.Sub(m.StateChange) > tombstoneTTL {
			delete(n.members, m.Name)
			continue
		}
		kept = append(kept, m)
		states = append(states, wireState(m))
	}
	if len(kept) < len(n.sortedMembers) {
		clear(n.sortedMembers[len(kept):])
		n.sortedMembers = kept
		n.roster = slices.DeleteFunc(n.roster, func(m *memberState) bool { return n.members[m.Name] != m })
	}
	return states
}

// wireState is m's entry in a push-pull table.
func wireState(m *memberState) wire.PushPullState {
	return wire.PushPullState{Name: m.Name, Addr: m.Addr, Incarnation: m.Incarnation, State: uint8(m.State)}
}

// sendStatesLocked sends msg, a PushPullReq or PushPullResp carrying
// states from localStatesLocked, over the reliable channel. The table
// goes back to the pool as soon as msg is encoded, before the transport
// sees the packet, so no outcome of the send can keep it.
func (n *Node) sendStatesLocked(addr string, msg wire.Message, states []wire.PushPullState) error {
	p := wire.AcquirePacker()
	defer p.Release()
	p.Add(msg)
	putStates(states)
	return n.sendPackedLocked(addr, p, true)
}

// jitterLocked draws a period uniformly from d ± d/8, so the syncs and
// reconnects of a simultaneously started cluster do not run in lock
// step.
func (n *Node) jitterLocked(d time.Duration) time.Duration {
	jitter := d / 8
	return d - jitter + time.Duration(n.cfg.RNG.Int63n(int64(2*jitter)))
}

// schedulePushPullLocked arms the next anti-entropy exchange.
func (n *Node) schedulePushPullLocked() {
	if n.shutdown {
		return
	}
	d := n.jitterLocked(pushPullInterval)
	if n.pushPullTimer == nil { // at the call site: see scheduleProbeLocked
		n.pushPullTimer = n.cfg.Clock.AfterFunc(d, n.pushPullTick)
	} else {
		n.pushPullTimer.Reset(d)
	}
}

// pushPullTick starts one full state sync with a random live member.
func (n *Node) pushPullTick() {
	n.mu.Lock()
	if n.shutdown {
		n.mu.Unlock()
		return
	}
	n.schedulePushPullLocked()
	if n.blockedLocked() {
		if !n.pushPullDeferred {
			n.pushPullDeferred = true
			n.deferToWakeLocked(func() {
				n.mu.Lock()
				n.pushPullDeferred = false
				n.pushPullLocked()
				n.mu.Unlock()
			})
		}
		n.mu.Unlock()
		return
	}
	n.pushPullLocked()
	n.mu.Unlock()
}

// pushPullLocked sends the request half of an anti-entropy exchange.
func (n *Node) pushPullLocked() {
	var buf [1]*memberState
	peers := n.selectRandomLocked(buf[:0], 1, func(m *memberState) bool {
		return m.State == StateAlive && m != n.self
	})
	if len(peers) == 0 {
		return
	}
	states := n.localStatesLocked()
	_ = n.sendStatesLocked(peers[0].Addr, &wire.PushPullReq{Source: n.cfg.Name, States: states}, states)
}

// handlePushPullReqLocked merges the remote table and answers with ours.
//
// The merge happens before the response snapshot is taken (memberlist
// does the reverse): if the remote table accuses us of being dead or
// suspect, our refutation — and any suspicions the remote table seeded —
// are already reflected in the response. This makes partition healing
// converge in a couple of reconnect rounds instead of many.
func (n *Node) handlePushPullReqLocked(from string, req *wire.PushPullReq) {
	n.mergeRemoteStateLocked(req.States)

	// Address the response by the requester's own advertised address in
	// its state table, not by our member record: after a crash-rejoin on
	// a fresh ephemeral port the record still holds the dead entry's old
	// address (alive@inc cannot displace dead@inc before a refutation),
	// and a response sent there is lost — the rejoiner would never learn
	// it must refute. Self-advertised and recorded addresses agree in
	// every other case.
	addr := req.Source
	if m, ok := n.members[req.Source]; ok {
		addr = m.Addr
	} else if from != "" {
		addr = from
	}
	for i := range req.States {
		if req.States[i].Name == req.Source && req.States[i].Addr != "" {
			addr = req.States[i].Addr
			break
		}
	}
	n.sendPushPullRespLocked(addr)
}

// sendPushPullRespLocked answers a push-pull request with this node's
// table.
func (n *Node) sendPushPullRespLocked(addr string) {
	states := n.localStatesLocked()
	_ = n.sendStatesLocked(addr, &wire.PushPullResp{Source: n.cfg.Name, States: states}, states)
}

// handleNoNewsPushPull handles, without decoding it, a packet that is
// one bare push-pull request or response whose table equals this
// node's view entry for entry (sortedMembers, in the order
// localStatesLocked sends it), and reports whether it did. Merging such
// a table is a no-op: each entry meets its own record in the same state
// at the same incarnation (docs/ARCHITECTURE.md §Contracts has the case
// by case proof). A request is answered as handlePushPullReqLocked
// answers it, at the requester's entry's address, which is its
// record's. Anything else, and a request whose source has no entry,
// takes the full path.
func (n *Node) handleNoNewsPushPull(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	kind := wire.MsgType(payload[0])
	if kind != wire.TypePushPullReq && kind != wire.TypePushPullResp {
		return false // not a push-pull: no lock taken
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	source, ok := wire.PushPullMatchesView(payload, n.sortedMembers, wireState)
	if !ok || n.shutdown {
		return false
	}
	if kind == wire.TypePushPullReq {
		m, ok := n.members[string(source)]
		if !ok {
			return false
		}
		n.sendPushPullRespLocked(m.Addr)
	}
	return true
}

// handlePushPullRespLocked merges the response half of an exchange.
func (n *Node) handlePushPullRespLocked(resp *wire.PushPullResp) {
	n.mergeRemoteStateLocked(resp.States)
}

// scheduleReconnectLocked arms the next reconnect attempt (the Serf
// layer's partition-healing behaviour).
func (n *Node) scheduleReconnectLocked() {
	if n.shutdown {
		return
	}
	d := n.jitterLocked(reconnectInterval)
	if n.reconnectTimer == nil { // at the call site: see scheduleProbeLocked
		n.reconnectTimer = n.cfg.Clock.AfterFunc(d, n.reconnectTick)
	} else {
		n.reconnectTimer.Reset(d)
	}
}

// reconnectTick attempts a push-pull with one random dead member. If the
// member is actually reachable again (healed partition, recovered host),
// the exchange triggers the refutation cascade that re-merges the
// groups; if it is truly dead, the packet vanishes like any other.
func (n *Node) reconnectTick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.shutdown {
		return
	}
	n.scheduleReconnectLocked()
	if n.blockedLocked() {
		return // skip quietly; reconnects are periodic anyway
	}
	var buf [1]*memberState
	targets := n.selectRandomLocked(buf[:0], 1, func(m *memberState) bool {
		return m.State == StateDead && m != n.self
	})
	if len(targets) == 0 {
		return
	}
	n.count("reconnect_attempts")
	states := n.localStatesLocked()
	_ = n.sendStatesLocked(targets[0].Addr, &wire.PushPullReq{Source: n.cfg.Name, States: states}, states)
}

// mergeRemoteStateLocked reconciles a remote membership table with ours
// using incarnation precedence, by replaying each entry through the
// regular message handlers. A remote dead is merged as a suspicion
// (memberlist's choice): if the member is actually alive, refutation can
// still win; left is terminal and merged as-is, over a held dead too.
//
// Only an alive entry creates a record: a suspect, dead or left entry
// about a name this view does not know is dropped (memberlist drops
// suspect and dead news about unknown names), so a joiner does not
// relearn, probe and declare every member that ever died.
func (n *Node) mergeRemoteStateLocked(states []wire.PushPullState) {
	for i := range states {
		s := &states[i]
		switch State(s.State) {
		case StateAlive:
			// The replayed alive and left messages stay on the stack:
			// the handlers copy out the fields they keep and marshal
			// their broadcasts before returning, so a table with no news
			// allocates nothing.
			n.handleAliveLocked(&wire.Alive{Incarnation: s.Incarnation, Node: s.Name, Addr: s.Addr})
		case StateSuspect, StateDead:
			// Apply the suspicion at the remote incarnation. Anti-entropy
			// state is not an accusation: it must neither confirm an
			// existing suspicion (only received suspect messages from
			// distinct accusers count as independent, §IV-B) nor be
			// re-gossiped with a relabeled accuser — doing either
			// manufactures fake independent suspicions on every push-pull
			// and collapses LHA-Suspicion's timeout cluster-wide.
			n.applyMergedSuspicionLocked(s.Name, s.Incarnation)
		case StateLeft:
			n.handleDeadLocked(&wire.Dead{
				Incarnation: s.Incarnation,
				Node:        s.Name,
				From:        s.Name,
			})
		}
	}
}
