package core

import "lifeguard/internal/wire"

// sendPacketLocked sends msg alone in one packet, fire-and-forget like
// every send at this layer: the failure detector is the loss handler.
func (n *Node) sendPacketLocked(addr string, msg wire.Message, reliable bool) {
	p := wire.AcquirePacker()
	defer p.Release()
	p.Add(msg)
	_ = n.sendPackedLocked(addr, p, reliable)
}

// sendPackedLocked finishes the packed messages into one payload and
// hands it to the transport in one send, which the transport counts as
// one message, matching the paper's Msgs Sent metric. The payload lives
// in the packer's reusable buffer; the Transport contract (payload
// valid only for the duration of SendPacket) is what makes that safe.
func (n *Node) sendPackedLocked(addr string, p *wire.Packer, reliable bool) error {
	payload := p.Finish()
	if len(payload) == 0 {
		return nil
	}
	return n.cfg.Transport.SendPacket(addr, payload, reliable)
}

// sendWithPiggybackLocked sends a failure-detector message with gossip
// updates packed into the remaining MTU budget. Queued payloads are
// copied straight from the broadcast queue into the packet buffer — no
// decode/re-encode round trip and no [][]byte intermediate.
//
// buddy is the member record the packet is headed to (for pings; nil
// otherwise); when the Buddy System is enabled and that member is
// currently suspected, the suspicion is force-included first,
// guaranteeing the suspected member hears the accusation at the first
// opportunity (§IV-C). Passing the record instead of the name keeps the
// per-ping buddy check off the member map.
func (n *Node) sendWithPiggybackLocked(addr string, primary wire.Message, buddy *memberState, reliable bool) {
	p := wire.AcquirePacker()
	defer p.Release()
	used := p.Add(primary) + wire.CompoundOverhead

	if n.cfg.BuddySystem && buddy != nil && buddy.State == StateSuspect {
		used += p.Add(&wire.Suspect{Incarnation: buddy.Incarnation, Node: buddy.Name, From: n.cfg.Name}) + wire.CompoundOverhead
	}

	if budget := wire.MTU - used; budget > 0 {
		n.queue.GetBroadcastsInto(wire.CompoundOverhead, budget, p.AddRaw)
	}
	// Sends are fire-and-forget at this layer; the failure detector is
	// the loss handler.
	_ = n.sendPackedLocked(addr, p, reliable)
}

// gossipTargetsLocked appends this tick's gossip fanout to dst:
// gossipNodes uniform random picks among the live members and the
// recently dead.
func (n *Node) gossipTargetsLocked(dst []*memberState) []*memberState {
	now := n.cfg.Clock.Now()
	return n.selectRandomLocked(dst, gossipNodes, func(m *memberState) bool {
		if m == n.self {
			return false
		}
		switch m.State {
		case StateAlive, StateSuspect:
			return true
		case StateDead:
			// Gossip to the recently dead so a falsely-declared member
			// hears about it and can refute (§III-B).
			return now.Sub(m.StateChange) <= gossipToTheDead
		default:
			return false
		}
	})
}

// scheduleGossipLocked arms the next dedicated gossip tick (§III-B: a
// gossip layer separate from the failure detector, so dissemination rate
// can exceed probe rate).
func (n *Node) scheduleGossipLocked() {
	if n.shutdown {
		return
	}
	if n.gossipTimer == nil { // at the call site: see scheduleProbeLocked
		n.gossipTimer = n.cfg.Clock.AfterFunc(gossipInterval, n.gossipTick)
	} else {
		n.gossipTimer.Reset(gossipInterval)
	}
}

// gossipTick pushes queued updates to a few random members. Blocked
// members coalesce missed ticks into one deferred round, like the probe
// loop.
func (n *Node) gossipTick() {
	n.mu.Lock()
	if n.shutdown {
		n.mu.Unlock()
		return
	}
	n.scheduleGossipLocked()
	if n.blockedLocked() {
		if !n.gossipDeferred {
			n.gossipDeferred = true
			n.deferToWakeLocked(func() {
				n.mu.Lock()
				n.gossipDeferred = false
				n.gossipLocked()
				n.mu.Unlock()
			})
		}
		n.mu.Unlock()
		return
	}
	n.gossipLocked()
	n.mu.Unlock()
}

// gossipLocked sends one round of pure gossip packets, in shared-payload
// groups: the broadcast selection and its encoding are computed once,
// and each following target joins the group as long as the queue can
// prove its selection would emit identical bytes (RepeatBroadcastsInto
// applies the transmit accounting without re-encoding). The group then
// goes out through one fan-out send. Divergence — a budget-skipped
// item, a transmit-limit drop, or a queue mutation — falls back to a
// fresh select-and-encode, so the packets on the wire are exactly the
// per-target loop's.
func (n *Node) gossipLocked() {
	if n.queue.Len() == 0 {
		return
	}
	var buf [gossipNodes]*memberState
	targets := n.gossipTargetsLocked(buf[:0])
	p := wire.AcquirePacker()
	defer p.Release()
	for i := 0; i < len(targets); {
		p.Reset()
		n.queue.GetBroadcastsInto(wire.CompoundOverhead, wire.MTU, p.AddRaw)
		if p.Count() == 0 {
			return
		}
		j := i + 1
		for j < len(targets) && n.queue.RepeatBroadcastsInto(wire.CompoundOverhead, wire.MTU) {
			j++
		}
		n.sendFanoutLocked(targets[i:j], p, false)
		i = j
	}
}

// sendFanoutLocked finishes the packed messages once and sends the
// payload to every target — through the transport's optional fan-out
// extension when it is available and the group is plural, one
// SendPacket per target otherwise. Either way the transport counts one
// packet per destination.
func (n *Node) sendFanoutLocked(targets []*memberState, p *wire.Packer, reliable bool) {
	payload := p.Finish()
	if len(payload) == 0 {
		return
	}
	if n.fanout != nil && len(targets) > 1 {
		addrs := n.fanoutAddrs[:0]
		for _, t := range targets {
			addrs = append(addrs, t.Addr)
		}
		n.fanoutAddrs = addrs
		_ = n.fanout.SendPacketFanout(addrs, payload, reliable)
		return
	}
	for _, t := range targets {
		_ = n.cfg.Transport.SendPacket(t.Addr, payload, reliable)
	}
}
