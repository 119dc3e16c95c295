// Package core implements the SWIM group-membership protocol with the
// Lifeguard extensions (LHA-Probe, LHA-Suspicion, Buddy System), at the
// feature level of HashiCorp's memberlist as described in the paper
// (§III-B): suspicion subprotocol with incarnation-based refutation,
// gossip dissemination piggybacked on failure-detector traffic plus a
// dedicated gossip tick, indirect probes with a reliable-channel
// fallback, push-pull anti-entropy, and dead-member state retention.
//
// A Node is driven entirely through its Clock and Transport, so the same
// protocol logic runs in real time over UDP/TCP (internal/nettrans) and
// in virtual time on the discrete-event simulator (internal/sim).
package core

import (
	"fmt"
	"sync"

	"lifeguard/internal/broadcast"
	"lifeguard/internal/metrics"
	"lifeguard/internal/timeutil"
	"lifeguard/internal/wire"
)

// Node is one group member. Create it with New, start the protocol with
// Start, and feed inbound packets to HandlePacket.
//
// Node is safe for concurrent use.
type Node struct {
	cfg Config

	mu sync.Mutex

	// incarnation is the local member's own incarnation number.
	incarnation uint64

	// members indexes every known member (including self and the
	// retained dead) by name. It is the wire-boundary translation only:
	// inbound messages carry names, so packet handling resolves name →
	// record here once, and everything downstream (probe rounds,
	// relays, suspicion timers, the schedules below) holds the record
	// pointer. Only alive news creates a record (handleAliveLocked), and
	// only the push-pull snapshot walk drops one, a tombstone older than
	// tombstoneTTL (localStatesLocked), from this map, roster and
	// sortedMembers together.
	members map[string]*memberState

	// self is the local member's own record, resolved once at Start so
	// the self-referential paths never hash the local name.
	self *memberState

	// probeList is the round-robin probe schedule: a locally shuffled
	// list of probeable member records (non-self, not dead or left),
	// maintained incrementally — swap-insert at a random pending offset
	// on join (SWIM §4.3), swap-remove on death — and reshuffled in
	// place at the end of each full pass. Each record's probeSlot field
	// indexes its current slot for the O(1) swap operations.
	probeList []*memberState
	probeIdx  int

	// roster is an incrementally shuffled slice of every known member
	// (self, dead and left included; the same records as the members
	// map). selectRandomLocked draws k-of-n samples from it
	// with a partial Fisher–Yates walk instead of sorting and shuffling
	// the whole member table per pick.
	roster []*memberState

	// sortedMembers mirrors the membership table in ascending name
	// order, maintained by a binary-search insert when a record is
	// created, so a push-pull snapshot walks it in place instead of
	// allocating and sorting the full roster per exchange; that walk
	// also reaps old tombstones.
	sortedMembers []*memberState

	// aliveCount tracks members in the alive or suspect states
	// (including self); it is SWIM's n for timeout and retransmit
	// scaling.
	aliveCount int

	// seqNo numbers outgoing probes.
	seqNo uint32

	// acks tracks in-flight probes originated here.
	acks map[uint32]*ackHandler

	// freeAcks holds finished probe-round records for reuse, each with
	// its two timers still bound to it (see releaseAckLocked for which
	// records qualify).
	freeAcks []*ackHandler

	// relays tracks indirect probes this member is relaying for others.
	relays map[uint32]*relayHandler

	// queue is the transmit-limited gossip queue.
	queue *broadcast.Queue

	// lhm is the Local Health Multiplier (§IV-A), in [0, maxLHM]: raised
	// by evidence of local slowness, lowered by successful probes, and
	// moved and consulted only when LHAProbe is on (adjustLHMLocked).
	lhm int

	// Tick timers: Start creates each with its first arm, and every
	// tick re-arms its own in place (Reset); stopped on shutdown.
	probeTimer     timeutil.Timer
	gossipTimer    timeutil.Timer
	pushPullTimer  timeutil.Timer
	reconnectTimer timeutil.Timer

	// deferred holds work postponed while Blocked() (loops stalled by an
	// injected anomaly); Wake runs it in order.
	deferred []func()

	// probeHeld, gossipHeld and pushPullHeld mark a loop's round held
	// for Wake (holdLocked).
	probeHeld    bool
	gossipHeld   bool
	pushPullHeld bool

	started  bool
	shutdown bool
	leaving  bool

	// Hot-path scratch, all guarded by mu.
	bcastBuf    []byte   // broadcastLocked's marshal buffer
	fanoutAddrs []string // shared-payload gossip group addresses

	// fanout is cfg.Transport's optional fan-out extension, resolved
	// once at construction; nil when the transport sends one packet at
	// a time.
	fanout FanoutTransport
}

// New validates cfg and returns an unstarted Node.
func New(cfg *Config) (*Node, error) {
	if cfg == nil {
		return nil, fmt.Errorf("core: nil config")
	}
	c := *cfg // copy so later caller mutation cannot race the node
	if err := c.validate(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     c,
		members: make(map[string]*memberState),
		acks:    make(map[uint32]*ackHandler),
		relays:  make(map[uint32]*relayHandler),
	}
	n.fanout, _ = c.Transport.(FanoutTransport)
	n.queue = broadcast.NewQueue(n.estNumNodes, retransmitMult)
	return n, nil
}

// Name returns the member's name.
func (n *Node) Name() string { return n.cfg.Name }

// Addr returns the member's transport address.
func (n *Node) Addr() string { return n.cfg.Addr }

// Config returns a copy of the node's effective configuration.
func (n *Node) Config() Config { return n.cfg }

// Incarnation returns the local member's current incarnation.
func (n *Node) Incarnation() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.incarnation
}

// HealthScore returns the current Local Health Multiplier value, in
// [0, S] with S = 8. Zero means locally healthy.
func (n *Node) HealthScore() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lhm
}

// Start marks the local member alive, announces it, and starts the
// probe, gossip, push-pull and reconnect loops.
func (n *Node) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return fmt.Errorf("core: node %s already started", n.cfg.Name)
	}
	if n.shutdown {
		return fmt.Errorf("core: node %s is shut down", n.cfg.Name)
	}
	n.started = true

	n.incarnation = 1
	self := &memberState{probeSlot: -1, Member: Member{
		Name:        n.cfg.Name,
		Addr:        n.cfg.Addr,
		Incarnation: n.incarnation,
		State:       StateAlive,
		StateChange: n.cfg.Clock.Now(),
	}}
	n.members[n.cfg.Name] = self
	n.sortedInsertLocked(self)
	n.self = self
	n.roster = append(n.roster, self)
	n.aliveCount = 1

	n.broadcastLocked(n.cfg.Name, n.selfAliveLocked())

	// Each tick re-arms its own timer (Reset); this order fixes the two
	// jitter draws and the schedule order.
	clock := n.cfg.Clock
	n.probeTimer = clock.AfterFunc(n.scaledLocked(n.cfg.ProbeInterval), n.probeTick)
	n.gossipTimer = clock.AfterFunc(gossipInterval, n.gossipTick)
	n.pushPullTimer = clock.AfterFunc(n.jitterLocked(pushPullInterval), n.pushPullTick)
	n.reconnectTimer = clock.AfterFunc(n.jitterLocked(reconnectInterval), n.reconnectTick)
	return nil
}

// Join initiates a push-pull exchange with the member at addr, merging
// its view of the group. The exchange is asynchronous; membership fills
// in as the response arrives.
func (n *Node) Join(addr string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.started || n.shutdown {
		return fmt.Errorf("core: node %s not running", n.cfg.Name)
	}
	states := n.localStatesLocked()
	return n.sendStatesLocked(addr, &wire.PushPullReq{Source: n.cfg.Name, Join: true, States: states}, states)
}

// selfAliveLocked builds an alive announcement for the local member at
// its current incarnation.
func (n *Node) selfAliveLocked() *wire.Alive {
	return &wire.Alive{
		Incarnation: n.incarnation,
		Node:        n.cfg.Name,
		Addr:        n.cfg.Addr,
	}
}

// Leave announces a graceful departure. The node keeps running (so the
// announcement can disseminate); call Shutdown afterwards.
func (n *Node) Leave() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.leaving || !n.started || n.shutdown {
		return
	}
	n.leaving = true
	d := &wire.Dead{Incarnation: n.incarnation, Node: n.cfg.Name, From: n.cfg.Name}
	n.deadNodeLocked(n.self, d)
}

// Shutdown stops all protocol activity. The node cannot be restarted.
func (n *Node) Shutdown() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.shutdown {
		return
	}
	n.shutdown = true
	stopTimer(n.probeTimer)
	stopTimer(n.gossipTimer)
	stopTimer(n.pushPullTimer)
	stopTimer(n.reconnectTimer)
	for _, h := range n.acks {
		stopTimer(h.timeoutTimer)
		stopTimer(h.periodTimer)
	}
	for _, r := range n.relays {
		stopTimer(r.nackTimer)
		stopTimer(r.expireTimer)
	}
	for _, m := range n.members {
		if m.susp != nil {
			m.susp.Stop()
		}
	}
	n.deferred = nil
}

func stopTimer(t timeutil.Timer) {
	if t != nil {
		t.Stop()
	}
}

// Members returns a snapshot of every known member, including the dead
// and left members still retained: each is kept for 5 minutes after its
// death or leave, and dropped at the next push-pull exchange after that.
func (n *Node) Members() []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Member, 0, len(n.members))
	for _, m := range n.members {
		out = append(out, m.Member)
	}
	return out
}

// Member returns the local view of the named member.
func (n *Node) Member(name string) (Member, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	m, ok := n.members[name]
	if !ok {
		return Member{}, false
	}
	return m.Member, true
}

// PendingBroadcasts returns the number of gossip updates still queued
// for transmission — every update, not just the local node's. Use
// LeavePending to wait specifically for a graceful departure to drain:
// on a busy cluster, membership churn can keep this count non-zero long
// after the leave announcement itself has gone out.
func (n *Node) PendingBroadcasts() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.queue.Len()
}

// LeavePending reports whether the departure announcement from Leave is
// still queued for gossip: true from Leave until that specific update
// has exhausted its retransmit budget. A graceful shutdown can poll it
// to bound the wait for the leave to disseminate; unlike
// PendingBroadcasts, unrelated queued updates cannot keep it true. It
// is false before Leave is called.
func (n *Node) LeavePending() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaving && n.queue.Peek(n.cfg.Name) != nil
}

// NumAlive returns the number of members (including self) currently in
// the alive or suspect states.
func (n *Node) NumAlive() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.aliveCount
}

// estNumNodes is the cluster-size estimate that sets the gossip
// queue's retransmit budget. The queue calls it under the node lock.
func (n *Node) estNumNodes() int {
	return n.aliveCount
}

// HandlePacket decodes and processes one inbound packet. The transport
// calls it once per delivered datagram/stream message.
//
// A push-pull table equal to this node's own view is not decoded at
// all (handleNoNewsPushPull). Everything else is decoded through a
// pooled wire.Unpacker, so the steady-state receive path allocates
// nothing. The unpacker's ownership contract (messages valid only
// until Release) holds here because every handler runs synchronously
// before the Release: the only decoded data the handlers retain are
// strings (interned, immutable), which the contract exempts.
func (n *Node) HandlePacket(from string, payload []byte) {
	if n.handleNoNewsPushPull(payload) {
		return
	}
	n.decodeAndHandle(from, payload)
}

// decodeAndHandle is HandlePacket's full path: decode every message of
// the packet, then handle each in order.
func (n *Node) decodeAndHandle(from string, payload []byte) {
	u := wire.AcquireUnpacker()
	defer u.Release()
	msgs, err := u.Decode(payload)
	if err != nil {
		n.count("decode_errors")
		return
	}
	// One lock round trip per packet, not one per piggybacked message.
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, msg := range msgs {
		if n.shutdown {
			return
		}
		n.handleMessageLocked(from, msg)
	}
}

func (n *Node) handleMessageLocked(from string, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.Ping:
		n.handlePingLocked(from, m)
	case *wire.IndirectPing:
		n.handleIndirectPingLocked(from, m)
	case *wire.Ack:
		n.handleAckLocked(from, m)
	case *wire.Nack:
		n.handleNackLocked(from, m)
	case *wire.Suspect:
		n.handleSuspectLocked(m)
	case *wire.Alive:
		n.handleAliveLocked(m)
	case *wire.Dead:
		n.handleDeadLocked(m)
	case *wire.PushPullReq:
		n.handlePushPullReqLocked(from, m)
	case *wire.PushPullResp:
		n.handlePushPullRespLocked(m)
	}
}

// blockedLocked reports whether an injected anomaly is stalling this
// member's protocol loops.
func (n *Node) blockedLocked() bool {
	return n.cfg.Blocked != nil && n.cfg.Blocked()
}

// holdLocked holds one round of a blocked loop for Wake, which runs it
// under the lock unless the node has shut down. A loop holds at most
// one round (*held): like a ticker whose reader is stuck, the ticks it
// misses in between coalesce into that one.
func (n *Node) holdLocked(held *bool, run func()) {
	if *held {
		return
	}
	*held = true
	n.deferred = append(n.deferred, func() {
		n.mu.Lock()
		*held = false
		if !n.shutdown {
			run()
		}
		n.mu.Unlock()
	})
}

// Wake runs work deferred while the member was blocked. The experiment
// harness calls it when it releases the member's anomaly gate; real
// deployments never need it.
func (n *Node) Wake() {
	n.mu.Lock()
	work := n.deferred
	n.deferred = nil
	n.mu.Unlock()
	for _, f := range work {
		f()
	}
}

// count adds one to the named counter of Config.Metrics; a nil sink
// counts nothing. Each counted fact has one site: the traffic a member
// sends is the transport's to count, and each membership transition is
// counted by the event dispatch below that reports it.
func (n *Node) count(name string) {
	if n.cfg.Metrics != nil {
		n.cfg.Metrics.IncrCounter(name, 1)
	}
}

// eventJoin/Suspect/Alive/Dead dispatch to the delegate (lock held; see
// EventDelegate contract).
func (n *Node) eventJoinLocked(m *memberState) {
	n.count("events_join")
	if n.cfg.Events != nil {
		n.cfg.Events.NotifyJoin(m.Member)
	}
}

func (n *Node) eventSuspectLocked(m *memberState) {
	n.count(metrics.CounterSuspicionsRaised)
	if n.cfg.Events != nil {
		n.cfg.Events.NotifySuspect(m.Member)
	}
}

func (n *Node) eventAliveLocked(m *memberState) {
	n.count(metrics.CounterSuspicionsRefuted)
	if n.cfg.Events != nil {
		n.cfg.Events.NotifyAlive(m.Member)
	}
}

func (n *Node) eventDeadLocked(m *memberState) {
	n.count("events_dead")
	if n.cfg.Events != nil {
		n.cfg.Events.NotifyDead(m.Member)
	}
}

func (n *Node) eventUpdateLocked(m *memberState) {
	n.count("events_update")
	if n.cfg.Events != nil {
		n.cfg.Events.NotifyUpdate(m.Member)
	}
}

// broadcastLocked queues an update about the named member for gossip.
// The message is marshalled into the node's reusable buffer; the queue
// copies the payload into its own storage, so the buffer is free for
// the next broadcast immediately.
func (n *Node) broadcastLocked(name string, msg wire.Message) {
	n.bcastBuf = wire.AppendMarshal(n.bcastBuf[:0], msg)
	n.queue.Queue(name, n.bcastBuf)
}
