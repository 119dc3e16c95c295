package core

import (
	"time"

	"lifeguard/internal/metrics"
	"lifeguard/internal/telemetry"
	"lifeguard/internal/timeutil"
	"lifeguard/internal/wire"
)

// ackHandler tracks one probe round originated by this member. A record
// outlives its round: it is created with its two timers, whose callbacks
// are bound to the record (not to a sequence number) for life, and a
// finished round hands it to Node.freeAcks so the next round re-arms the
// same timers instead of allocating new ones.
type ackHandler struct {
	// seq is the round the record currently serves. The timer callbacks
	// read it under the node lock.
	seq uint32

	// target is the probed member's record. A record is reaped only
	// long after its death (tombstoneTTL), and a round against a dead
	// record does nothing, so the pointer is safe for the round's life.
	target *memberState

	// acked is set by the first matching ack (direct, relayed, or
	// nack-then-ack, which the paper counts as success).
	acked bool

	// nacksExpected is the number of relays asked for nacks; relays
	// that send neither an ack nor a nack count against local health.
	nacksExpected int

	// nackFrom dedupes relay nacks by relay name. At most
	// indirectChecks relays answer, so a linear scan over a slice
	// replaces the per-round map allocation.
	nackFrom []string

	// sentAt is when the direct ping left (refreshed if the send was
	// deferred to wake); a direct ack's arrival minus sentAt is the RTT
	// handed to telemetry.
	sentAt time.Time

	// indirect is set once the round escalated to indirect probes (and
	// the TCP fallback): from then on an ack's timing no longer
	// measures the direct path, so no RTT observation is taken.
	indirect bool

	timeoutTimer timeutil.Timer
	periodTimer  timeutil.Timer

	// timeoutQuiet records that timeoutTimer's current arm can deliver
	// no further callback: its Stop returned true, or its callback has
	// entered under the node lock. See releaseAckLocked.
	timeoutQuiet bool
}

// stopTimeout cancels the round's timeout timer, noting whether that
// leaves it quiet.
func (h *ackHandler) stopTimeout() {
	if h.timeoutTimer.Stop() {
		h.timeoutQuiet = true
	}
}

// relayHandler tracks one indirect probe this member relays for another.
type relayHandler struct {
	// origin is the member that asked for the indirect probe, by name —
	// the originator is not necessarily in our membership table, so the
	// name is authoritative. originM is its record when it was known at
	// relay start, or nil; answers fall back to a name lookup then, in
	// case the originator has since been learned.
	origin  string
	originM *memberState

	// origSeq is the originator's sequence number, echoed in the
	// forwarded ack and in the nack.
	origSeq uint32

	// target is the record of the member being probed on the
	// originator's behalf.
	target *memberState

	// acked is set once the target's ack has been forwarded.
	acked bool

	// wantNack is whether the originator asked for a nack.
	wantNack bool

	// sentAt is when the relayed ping left; the relay measures its own
	// RTT to the target for telemetry too.
	sentAt time.Time

	nackTimer   timeutil.Timer
	expireTimer timeutil.Timer
}

// The Local Health Multiplier's event deltas (§IV-A): evidence of local
// slowness raises the score, a successful probe lowers it.
const (
	lhmProbeSuccess = -1 // an ack for a probe this member sent
	lhmProbeFailed  = 1  // a probe round closed with no ack
	lhmRefute       = 1  // this member refuted an accusation about itself
	lhmMissedNack   = 1  // per relay that sent neither an ack nor a nack
)

// adjustLHMLocked applies delta to the LHM, saturating in [0, maxLHM],
// and reports the new score. It does nothing unless LHA-Probe is on.
func (n *Node) adjustLHMLocked(delta int) {
	if !n.cfg.LHAProbe {
		return
	}
	n.lhm = min(max(n.lhm+delta, 0), maxLHM)
	if n.cfg.Telemetry != nil {
		n.cfg.Telemetry.RecordLHM(n.lhm)
	}
}

// scaledLocked scales d by the LHM, d·(LHM+1), when LHA-Probe is on: a
// struggling member probes less often and gives its peers longer to
// answer (§IV-A).
func (n *Node) scaledLocked(d time.Duration) time.Duration {
	if !n.cfg.LHAProbe {
		return d
	}
	return d * time.Duration(n.lhm+1)
}

// probeTick runs one protocol period.
//
// While the member is blocked by an anomaly, the round still *starts* at
// the tick — memberlist arms the ack and period timers before the send,
// and timers keep firing in a stalled process — but the ping itself is
// held for wake. The resumed round then finds its deadlines long past
// and fails immediately, suspecting a healthy target: the false-positive
// seed the paper attributes to slow members (§II, §IV). Ticks that fire
// while a held round is pending are dropped (holdLocked).
func (n *Node) probeTick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.shutdown {
		return
	}
	n.probeTimer.Reset(n.scaledLocked(n.cfg.ProbeInterval))
	blocked := n.blockedLocked()
	if blocked && n.probeHeld {
		return
	}
	target := n.nextProbeTargetLocked()
	if target == nil {
		return
	}
	ping := n.startProbeRoundLocked(target)
	if !blocked {
		n.sendWithPiggybackLocked(target.Addr, &ping, target, false)
		return
	}
	// The held ping is its own variable: captured by the closure, it
	// moves to the heap, which ping on the unblocked path must not.
	held, addr := ping, target.Addr
	n.holdLocked(&n.probeHeld, func() {
		// The ping only leaves now; restamp the round so a later RTT
		// observation measures the network, not the block.
		if h, ok := n.acks[held.SeqNo]; ok {
			h.sentAt = n.cfg.Clock.Now()
		}
		n.sendWithPiggybackLocked(addr, &held, target, false)
	})
}

// nextProbeTargetLocked selects the member to probe this period by
// advancing the round-robin schedule (§III-A), reshuffling it once a
// pass is exhausted. The probe list is maintained incrementally and
// holds exactly the probeable members (non-self, alive or suspect), so
// the next slot is the target.
func (n *Node) nextProbeTargetLocked() *memberState {
	if len(n.probeList) == 0 {
		return nil
	}
	if n.probeIdx == len(n.probeList) {
		n.resetProbeListLocked()
	}
	m := n.probeList[n.probeIdx]
	n.probeIdx++
	return m
}

// resetProbeListLocked reshuffles the probe schedule in place at the end
// of a full pass (Fisher–Yates, O(n)). The schedule's membership is
// maintained incrementally by insert/removeProbeTargetLocked, so no
// rebuild — and in particular no per-pass sort over the member table —
// is needed; the RNG remains the only source of randomness, preserving
// the simulation's same-seed determinism.
func (n *Node) resetProbeListLocked() {
	for i := len(n.probeList) - 1; i > 0; i-- {
		j := n.cfg.RNG.Intn(i + 1)
		n.probeList[i], n.probeList[j] = n.probeList[j], n.probeList[i]
		n.probeList[i].probeSlot = i
		n.probeList[j].probeSlot = j
	}
	n.probeIdx = 0
}

// insertProbeTargetLocked schedules a new member at a uniformly random
// position among the not-yet-probed remainder of the current pass (SWIM
// §4.3), preserving the expected first-detection latency while bounding
// the worst case. The insert is a swap: the member lands at the chosen
// slot and the displaced member moves to the end of the pass, staying
// pending. O(1), versus the O(n) memmove of a true insertion.
func (n *Node) insertProbeTargetLocked(m *memberState) {
	if m == n.self {
		return
	}
	if m.probeSlot >= 0 {
		return
	}
	n.probeList = append(n.probeList, m)
	pos := len(n.probeList) - 1
	m.probeSlot = pos
	if lo := n.probeIdx; lo < pos {
		j := lo + n.cfg.RNG.Intn(pos-lo+1)
		n.probeList[pos], n.probeList[j] = n.probeList[j], n.probeList[pos]
		n.probeList[pos].probeSlot = pos
		n.probeList[j].probeSlot = j
	}
}

// removeProbeTargetLocked drops a member from the probe schedule when it
// dies or leaves. Removal is by swap (O(1)): a hole in the already-probed
// prefix is filled with the last probed member, and the resulting hole at
// the pending boundary — or a hole directly in the pending region — is
// filled with the list's tail, which keeps both regions contiguous so no
// member is skipped or probed twice within the pass.
func (n *Node) removeProbeTargetLocked(m *memberState) {
	p := m.probeSlot
	if p < 0 {
		return
	}
	last := len(n.probeList) - 1
	if p < n.probeIdx {
		n.probeIdx--
		moved := n.probeList[n.probeIdx]
		n.probeList[p] = moved
		moved.probeSlot = p
		p = n.probeIdx
	}
	if p != last {
		moved := n.probeList[last]
		n.probeList[p] = moved
		moved.probeSlot = p
	}
	n.probeList = n.probeList[:last]
	m.probeSlot = -1
}

// startProbeRoundLocked registers the ack handler and arms the round's
// timers, returning the ping to send. Separated from the send so a
// blocked member's round can start at the tick while its ping waits for
// wake. The timers are armed timeout first, period second, on a
// recycled record exactly as on a new one.
func (n *Node) startProbeRoundLocked(m *memberState) wire.Ping {
	n.count(metrics.CounterProbes)
	n.seqNo++
	seq := n.seqNo
	timeout, interval := n.scaledLocked(n.cfg.ProbeTimeout), n.scaledLocked(n.cfg.ProbeInterval)

	h := n.takeAckLocked()
	*h = ackHandler{
		seq:          seq,
		target:       m,
		nackFrom:     h.nackFrom[:0],
		sentAt:       n.cfg.Clock.Now(),
		timeoutTimer: h.timeoutTimer,
		periodTimer:  h.periodTimer,
	}
	n.acks[seq] = h
	if h.timeoutTimer == nil {
		h.timeoutTimer = n.cfg.Clock.AfterFunc(timeout, func() { n.probeTimeoutExpired(h) })
		h.periodTimer = n.cfg.Clock.AfterFunc(interval, func() { n.probePeriodExpired(h) })
	} else {
		h.timeoutTimer.Reset(timeout)
		h.periodTimer.Reset(interval)
	}

	return wire.Ping{SeqNo: seq, Target: m.Name, Source: n.cfg.Name}
}

// takeAckLocked returns the record for a new round: a recycled one with
// both timers spent, or a new one that has none yet.
func (n *Node) takeAckLocked() *ackHandler {
	k := len(n.freeAcks)
	if k == 0 {
		return &ackHandler{}
	}
	h := n.freeAcks[k-1]
	n.freeAcks[k-1] = nil
	n.freeAcks = n.freeAcks[:k-1]
	return h
}

// releaseAckLocked retires the record of a round that has just left
// n.acks. Only the period timer's callback (or its deferred-to-wake
// continuation) closes a round, so that timer's arm is spent; the record
// is reusable if the timeout timer's is too (timeoutQuiet). Otherwise it
// is left to the garbage collector: on the real clock a Stop that
// returns false can mean the timeout callback's goroutine is already
// waiting for the node lock, and that callback must find the record as
// this round left it — a sequence number no longer in n.acks — never
// re-armed under the next round's, whose healthy probe it would then
// time out early (the paper's own false positive). On the simulated
// clocks every record qualifies.
func (n *Node) releaseAckLocked(h *ackHandler) {
	if h.timeoutQuiet {
		n.freeAcks = append(n.freeAcks, h)
	}
}

// probeTimeoutExpired is the timeout timer's callback on the round h
// currently serves.
func (n *Node) probeTimeoutExpired(h *ackHandler) {
	n.mu.Lock()
	h.timeoutQuiet = true
	n.probeTimeoutExpiredLocked(h.seq)
	n.mu.Unlock()
}

// probeTimeoutExpiredLocked runs when the direct probe's ack deadline
// passes: launch indirect probes through k members, plus the
// reliable-channel fallback. While blocked, the continuation is deferred
// to wake — the probe goroutine is stuck before its sends — after which
// the (long past) deadline makes the round fail immediately, exactly the
// resumed stale probe the paper describes.
func (n *Node) probeTimeoutExpiredLocked(seq uint32) {
	if n.shutdown {
		return
	}
	h, ok := n.acks[seq]
	if !ok || h.acked {
		return
	}
	if n.blockedLocked() {
		n.deferred = append(n.deferred, func() {
			n.mu.Lock()
			n.probeTimeoutExpiredLocked(seq)
			n.mu.Unlock()
		})
		return
	}
	target := h.target
	if target.State == StateDead || target.State == StateLeft {
		return
	}
	// Indirect probes through k uniformly random members, and the
	// reliable-channel fallback ping below: from here on an ack's timing
	// no longer measures the direct path.
	var buf [indirectChecks]*memberState
	relays := n.selectRandomLocked(buf[:0], indirectChecks, func(m *memberState) bool {
		return m.State == StateAlive && m != n.self && m != target
	})
	h.indirect = true
	wantNack := n.cfg.LHAProbe
	for _, r := range relays {
		ind := &wire.IndirectPing{
			SeqNo:    seq,
			Target:   target.Name,
			Source:   n.cfg.Name,
			WantNack: wantNack,
		}
		n.sendWithPiggybackLocked(r.Addr, ind, target, false)
	}
	if wantNack {
		h.nacksExpected = len(relays)
	}

	// Reliable-channel fallback direct probe (memberlist §III-B).
	n.sendWithPiggybackLocked(target.Addr, &wire.Ping{SeqNo: seq, Target: target.Name, Source: n.cfg.Name}, target, true)
}

// probePeriodExpired is the period timer's callback on the round h
// currently serves.
func (n *Node) probePeriodExpired(h *ackHandler) {
	n.mu.Lock()
	n.probePeriodExpiredLocked(h.seq)
	n.mu.Unlock()
}

// probePeriodExpiredLocked closes the probe round at the end of the
// protocol period: account local health, and suspect the target if no
// ack arrived.
func (n *Node) probePeriodExpiredLocked(seq uint32) {
	if n.shutdown {
		return
	}
	h, ok := n.acks[seq]
	if !ok {
		return
	}
	if h.acked {
		delete(n.acks, seq)
		n.releaseAckLocked(h)
		return
	}
	if n.blockedLocked() {
		n.deferred = append(n.deferred, func() {
			n.mu.Lock()
			n.probePeriodExpiredLocked(seq)
			n.mu.Unlock()
		})
		return
	}
	delete(n.acks, seq)
	h.stopTimeout()
	target, missed := h.target, h.nacksExpected-len(h.nackFrom)
	n.releaseAckLocked(h)

	n.count(metrics.CounterProbeFailures)
	if n.cfg.Telemetry != nil {
		n.cfg.Telemetry.RecordProbe(target.Name, telemetry.OutcomeTimeout)
	}
	delta := lhmProbeFailed
	// Each relay that sent neither an ack nor a nack is evidence of
	// local slowness too (§IV-A).
	if missed > 0 {
		delta += missed * lhmMissedNack
	}
	n.adjustLHMLocked(delta)

	if target.State == StateDead || target.State == StateLeft {
		return
	}
	// An already-suspected target still gets our accusation:
	// suspectNodeLocked records it as an independent confirmation, which
	// is what drives LHA-Suspicion's timeout decay for genuinely failed
	// members (§IV-B) — every healthy member whose probe fails becomes a
	// distinct accuser.
	s := &wire.Suspect{Incarnation: target.Incarnation, Node: target.Name, From: n.cfg.Name}
	n.suspectNodeLocked(target, s)
}

// handlePingLocked answers a direct probe. The ack carries piggybacked
// gossip like any failure-detector message.
func (n *Node) handlePingLocked(from string, p *wire.Ping) {
	if p.Target != "" && p.Target != n.cfg.Name {
		// Mis-addressed probe; answering would poison the sender's view.
		n.count("misdirected_pings")
		return
	}
	src := p.Source
	if src == "" {
		src = from
	}
	addr := src
	if sm := n.members[src]; sm != nil {
		addr = sm.Addr
	}
	n.sendWithPiggybackLocked(addr, &wire.Ack{SeqNo: p.SeqNo, Source: n.cfg.Name}, nil, false)
}

// handleIndirectPingLocked relays a probe on behalf of another member.
func (n *Node) handleIndirectPingLocked(from string, ind *wire.IndirectPing) {
	origin := ind.Source
	if origin == "" {
		origin = from
	}
	target, ok := n.members[ind.Target]
	if !ok {
		return
	}

	n.seqNo++
	seq := n.seqNo
	r := &relayHandler{
		origin:   origin,
		originM:  n.members[origin],
		origSeq:  ind.SeqNo,
		target:   target,
		wantNack: ind.WantNack,
		sentAt:   n.cfg.Clock.Now(),
	}
	n.relays[seq] = r

	if ind.WantNack {
		nackAfter := time.Duration(float64(n.scaledLocked(n.cfg.ProbeTimeout)) * nackTimeoutFraction)
		r.nackTimer = n.cfg.Clock.AfterFunc(nackAfter, func() { n.relayNackExpired(seq) })
	}
	// Forget the relay once the originator's round is long over.
	r.expireTimer = n.cfg.Clock.AfterFunc(2*n.scaledLocked(n.cfg.ProbeInterval), func() {
		n.mu.Lock()
		if rr, ok := n.relays[seq]; ok {
			stopTimer(rr.nackTimer)
			delete(n.relays, seq)
		}
		n.mu.Unlock()
	})

	n.sendWithPiggybackLocked(target.Addr, &wire.Ping{SeqNo: seq, Target: target.Name, Source: n.cfg.Name}, target, false)
}

// relayOriginAddrLocked resolves the address to answer a relayed probe
// on: the originator's record when known (held since relay start, or
// by one name lookup otherwise — it may have joined our view since),
// falling back to its self-reported name.
func (n *Node) relayOriginAddrLocked(r *relayHandler) string {
	if r.originM != nil {
		return r.originM.Addr
	}
	if m, ok := n.members[r.origin]; ok {
		return m.Addr
	}
	return r.origin
}

// relayNackExpired sends the nack for a relayed probe whose target has
// not acked within the nack window (§IV-A).
func (n *Node) relayNackExpired(seq uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.shutdown {
		return
	}
	r, ok := n.relays[seq]
	if !ok || r.acked || !r.wantNack {
		return
	}
	n.sendPacketLocked(n.relayOriginAddrLocked(r), &wire.Nack{SeqNo: r.origSeq, Source: n.cfg.Name}, false)
}

// handleAckLocked closes the matching probe round (as originator) or
// forwards the ack (as relay). Probe and relay rounds share the node's
// sequence space, so a sequence number identifies exactly one of the two.
func (n *Node) handleAckLocked(_ string, a *wire.Ack) {
	// Originator path: the ack (direct, fallback, or relay-forwarded)
	// answers a probe we initiated. An ack arriving after a nack still
	// counts as a successful probe (§IV-A, footnote 5).
	if h, ok := n.acks[a.SeqNo]; ok {
		if h.acked {
			return
		}
		h.acked = true
		h.stopTimeout()
		tm := h.target
		n.adjustLHMLocked(lhmProbeSuccess)
		if n.cfg.Telemetry != nil {
			if h.indirect {
				n.cfg.Telemetry.RecordProbe(tm.Name, telemetry.OutcomeIndirectAck)
			} else {
				// A round that never escalated is answered on the direct
				// path, so the timing is a clean RTT measurement.
				n.cfg.Telemetry.RecordProbe(tm.Name, telemetry.OutcomeDirectAck)
				n.cfg.Telemetry.RecordRTT(tm.Name, n.cfg.Clock.Now().Sub(h.sentAt))
			}
		}
		return
	}

	// Relay path: the target answered a ping we sent on someone's
	// behalf; forward under the originator's sequence number. Forwarding
	// happens even after a nack was sent.
	if r, ok := n.relays[a.SeqNo]; ok && !r.acked {
		r.acked = true
		stopTimer(r.nackTimer)
		tm := r.target
		if n.cfg.Telemetry != nil && a.Source == tm.Name {
			// The relay's own ping/ack exchange with the target is a
			// direct-path measurement for the relay too.
			n.cfg.Telemetry.RecordRTT(a.Source, n.cfg.Clock.Now().Sub(r.sentAt))
		}
		n.sendPacketLocked(n.relayOriginAddrLocked(r), &wire.Ack{SeqNo: r.origSeq, Source: a.Source}, false)
	}
}

// handleNackLocked records a relay's nack: proof the relay path is live
// even though the target is not answering.
func (n *Node) handleNackLocked(_ string, nk *wire.Nack) {
	h, ok := n.acks[nk.SeqNo]
	if !ok {
		return
	}
	for _, s := range h.nackFrom {
		if s == nk.Source {
			return
		}
	}
	h.nackFrom = append(h.nackFrom, nk.Source)
}

// selectRandomLocked appends up to k distinct members matching the
// filter to dst, chosen uniformly at random by a partial Fisher–Yates
// walk over the incrementally maintained roster: position i is swapped
// with a random position in [i, n) and kept if it matches, stopping at k
// picks. Matching members therefore form a uniform k-subset at a cost of
// O(k) RNG draws when most members match, instead of the full
// sort+shuffle of every candidate. The roster order is itself
// deterministic (it evolves only through message handling and these
// RNG-driven swaps — never map iteration), so selection remains a pure
// function of the node's RNG and same-seed simulations stay
// reproducible. Callers pass dst sliced from an array of k pointers on
// their own stack, so a pick allocates nothing.
func (n *Node) selectRandomLocked(dst []*memberState, k int, match func(*memberState) bool) []*memberState {
	if k <= 0 || len(n.roster) == 0 {
		return dst
	}
	start := len(dst)
	r := n.roster
	for i := 0; i < len(r) && len(dst)-start < k; i++ {
		j := i + n.cfg.RNG.Intn(len(r)-i)
		r[i], r[j] = r[j], r[i]
		if match(r[i]) {
			dst = append(dst, r[i])
		}
	}
	return dst
}
