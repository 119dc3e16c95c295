package sim

import (
	"fmt"
	"math/rand"
	"time"

	"lifeguard/internal/bufpool"
)

// PacketHandler consumes one inbound packet at a member.
type PacketHandler func(from string, payload []byte)

// DelayDist is a delay distribution: Base plus a uniform random
// addition in [0, Jitter). It is the simulator's one way to say a
// delay: link latencies, the reorder hold-back and member degradation
// all draw from one. The zero value means "no delay".
type DelayDist struct {
	// Base is the deterministic part of the delay.
	Base time.Duration

	// Jitter is the width of the uniform random addition to Base.
	Jitter time.Duration
}

// sample draws one delay. A distribution without jitter returns Base
// and draws nothing from rng.
func (d DelayDist) sample(rng *rand.Rand) time.Duration {
	if d.Jitter <= 0 {
		return d.Base
	}
	return d.Base + time.Duration(rng.Int63n(int64(d.Jitter)))
}

// IsZero reports whether the distribution is the zero value (no delay).
func (d DelayDist) IsZero() bool { return d.Base <= 0 && d.Jitter <= 0 }

// flatDelay is the one-way delay of every packet: uniform in
// [100µs, 1ms), approximating the paper's loopback deployment.
var flatDelay = DelayDist{Base: 100 * time.Microsecond, Jitter: 900 * time.Microsecond}

// Options configures a simulated network.
type Options struct {
	// Seed seeds the network's RNGs (the base latency draws and, from a
	// derived seed, the fault draws).
	Seed int64
}

// The member's inbound path. Nothing sets a second value for either, so
// they are constants rather than Options fields (docs/ARCHITECTURE.md,
// Contracts).
const (
	// queueCap bounds each member's inbound queue, modelling the kernel
	// socket buffer. Overflow is tail-drop: the newest packet is lost,
	// which is what makes a late refutation vanish behind an earlier
	// stale suspicion at a blocked member (docs/ARCHITECTURE.md
	// §Simulator engine).
	queueCap = 512
	// serviceTime is the per-message processing cost at a member. A
	// member that wakes from an anomaly drains its backlog at this rate,
	// so short wake windows clear only part of the queue.
	serviceTime = 100 * time.Microsecond
)

// Stats summarizes one member's transport activity.
type Stats struct {
	// MsgsSent counts packets handed to the network (compound packets
	// count once).
	MsgsSent int64

	// BytesSent counts payload bytes handed to the network.
	BytesSent int64

	// MsgsDelivered counts packets processed by the handler.
	MsgsDelivered int64

	// DropsLoss reads 0: the network has no random loss of its own
	// (per-link loss is a LinkFault, counted in DropsFault). The field
	// stays only because the benchmark module reads it; ROADMAP item 18
	// removes it with that reader.
	DropsLoss int64

	// DropsOverflow counts packets tail-dropped at this member's full
	// inbound queue.
	DropsOverflow int64

	// DropsFault counts packets lost to injected faults: link-fault
	// loss, or inbound discarded while this member is paused in
	// PauseDrop mode.
	DropsFault int64

	// Duplicated counts extra copies injected toward this member by a
	// duplication fault. Like every in-flight packet, a copy can still
	// be lost downstream (queue overflow, a drop-mode pause, detach),
	// so this counts interventions, not guaranteed deliveries.
	Duplicated int64

	// Reordered counts packets to this member held back by an injected
	// reorder fault, allowing later packets to overtake them.
	Reordered int64
}

// Merge accumulates other into s.
func (s *Stats) Merge(other Stats) {
	s.MsgsSent += other.MsgsSent
	s.BytesSent += other.BytesSent
	s.MsgsDelivered += other.MsgsDelivered
	s.DropsLoss += other.DropsLoss
	s.DropsOverflow += other.DropsOverflow
	s.DropsFault += other.DropsFault
	s.Duplicated += other.Duplicated
	s.Reordered += other.Reordered
}

// inPacket and outPacket hold references on pooled payload buffers: the
// core's Transport contract only guarantees the payload for the
// duration of SendPacket, while the simulator queues packets across
// virtual time. A fan-out send and a duplication fault share one buffer
// across packets, each holding its own reference.
type inPacket struct {
	from string
	buf  *bufpool.Buf
}

type outPacket struct {
	to       string
	buf      *bufpool.Buf
	reliable bool
}

// delivery is one in-flight packet's scheduler payload. Deliveries are
// pooled on the Network and dispatched through the scheduler's pooled
// closure-free events, so the per-packet path allocates neither an
// Event nor a closure in steady state.
type delivery struct {
	net  *Network
	dst  *Port
	from string
	buf  *bufpool.Buf
}

// runDelivery is the static dispatch target for delivery events.
func runDelivery(a any) {
	d := a.(*delivery)
	n, dst, from, buf := d.net, d.dst, d.from, d.buf
	d.dst, d.buf, d.from = nil, nil, ""
	n.freeDeliveries = append(n.freeDeliveries, d)
	if dst.detached {
		// The destination was detached (and possibly replaced by a new
		// Port under the same name) while the packet was in flight.
		buf.Release()
		return
	}
	dst.receive(from, buf)
}

// servePort is the static dispatch target for service-completion events.
func servePort(a any) { a.(*Port).serveOne() }

// Port is one member's attachment to the network. It implements the
// core's Transport interface.
type Port struct {
	name string
	// id is the network-interned handle for name. Ids are assigned on
	// first sight and never recycled, so a re-attached member keeps its
	// id and any installed link faults keep applying to it by name.
	id      int32
	net     *Network
	handler PacketHandler

	gated bool

	// inbox is the member's inbound backlog, consumed from inHead: a
	// drained slot is zeroed and the head index advances, instead of
	// shifting the whole queue per packet (which made a 512-deep paused
	// backlog quadratic to drain). The array is reclaimed when the
	// queue empties, and compacted once the dead prefix exceeds the
	// queue cap.
	inbox  []inPacket
	inHead int

	serving bool
	outbox  []outPacket

	// detached marks a Port removed from the network; packets still in
	// flight to it are dropped on delivery without a name lookup.
	detached bool

	// degrade, when non-zero, is the member's injected processing
	// degradation: extra per-packet service delay, and deferral of
	// NodeClock timer callbacks.
	degrade DelayDist

	// dropInbound discards inbound packets while the member is gated
	// (PauseDrop); buffering is the default.
	dropInbound bool

	// crashed marks a permanent hard stop: the member stays gated and
	// dropping, and pause/resume/gate transitions no longer apply.
	crashed bool

	wakeFns []func()

	stats Stats
}

// Network is a simulated packet network with per-member anomaly gates.
// It must only be used from the owning scheduler's event loop (or before
// the simulation starts).
type Network struct {
	sched *Scheduler
	clock *Clock
	rng   *rand.Rand
	nodes map[string]*Port

	// ids interns member names into dense int32 handles. A name is
	// assigned an id the first time the network sees it — on Attach or
	// when a link fault/partition is installed against it — and the id
	// is never recycled: name identity persists across Detach and
	// re-Attach, so faults installed by name keep applying to the
	// member's replacement Port.
	ids map[string]int32

	// failedLinks holds directed pairs {from, to} that drop all
	// traffic, for partition experiments. Keyed by a pair of interned
	// ids: the per-packet lookup hashes eight bytes instead of two
	// strings and allocates nothing.
	failedLinks map[[2]int32]bool

	// linkFaults holds directed per-link loss/duplication/reordering
	// impairments installed by fault schedules, keyed like failedLinks.
	linkFaults map[[2]int32]LinkFault

	// freeDeliveries pools the in-flight packet payloads handed to the
	// scheduler (see delivery).
	freeDeliveries []*delivery

	// retired accumulates the statistics of detached Ports, so
	// TotalStats covers the whole run across restarts.
	retired Stats

	// faultRNG drives every fault-injection draw (link-fault loss,
	// duplicate latency, reorder hold-back, degradation delays). It is
	// a separate stream from rng so that installing faults never
	// perturbs the base latency sequence.
	faultRNG *rand.Rand
}

// NewNetwork returns a network on the given scheduler.
func NewNetwork(sched *Scheduler, opts Options) *Network {
	return &Network{
		sched:       sched,
		clock:       NewClock(sched),
		rng:         rand.New(rand.NewSource(opts.Seed)),
		nodes:       make(map[string]*Port),
		ids:         make(map[string]int32),
		failedLinks: make(map[[2]int32]bool),
		linkFaults:  make(map[[2]int32]LinkFault),
		faultRNG:    rand.New(rand.NewSource(opts.Seed ^ 0x5eedfa17)),
	}
}

// Clock returns the virtual clock shared by all members of this network.
func (n *Network) Clock() *Clock { return n.clock }

// Attach registers a member and returns its Port. The handler is invoked
// for each delivered packet; it must not be nil.
func (n *Network) Attach(name string, handler PacketHandler) (*Port, error) {
	if handler == nil {
		return nil, fmt.Errorf("sim: nil handler for %q", name)
	}
	if _, dup := n.nodes[name]; dup {
		return nil, fmt.Errorf("sim: duplicate member %q", name)
	}
	p := &Port{name: name, id: n.internName(name), net: n, handler: handler}
	n.nodes[name] = p
	return p, nil
}

// internName returns the id for a member name, assigning the next
// dense id on first sight. Ids are never recycled (see Network.ids).
func (n *Network) internName(name string) int32 {
	if id, ok := n.ids[name]; ok {
		return id
	}
	id := int32(len(n.ids))
	n.ids[name] = id
	return id
}

// linkID returns the interned id pair keying a directed link,
// interning names not yet seen (a fault may be installed before the
// member attaches; the id sticks when it does).
func (n *Network) linkID(from, to string) [2]int32 {
	return [2]int32{n.internName(from), n.internName(to)}
}

// Detach removes a member; packets in flight to it are dropped on
// delivery. Re-attaching the same name creates a fresh Port, so
// in-flight packets addressed to the old one still drop. The Port's
// statistics stay in TotalStats. The packets it still held — an inbound
// backlog, and sends held while gated (a crashed member's never flush)
// — are released without being counted anywhere.
func (n *Network) Detach(name string) {
	if p, ok := n.nodes[name]; ok {
		p.detached = true
		n.retired.Merge(p.stats)
		delete(n.nodes, name)
		for _, pkt := range p.inbox[p.inHead:] {
			pkt.buf.Release()
		}
		for _, o := range p.outbox {
			o.buf.Release()
		}
		p.inbox, p.inHead, p.outbox = nil, 0, nil
	}
}

// FailLink sets whether all traffic from a to b is dropped. Call twice
// (both directions) for a symmetric partition.
func (n *Network) FailLink(from, to string, failed bool) {
	key := n.linkID(from, to)
	if failed {
		n.failedLinks[key] = true
	} else {
		delete(n.failedLinks, key)
	}
}

func (n *Network) linkFailed(from, to int32) bool {
	if len(n.failedLinks) == 0 {
		return false
	}
	return n.failedLinks[[2]int32{from, to}]
}

// SetGated switches a member's anomaly gate. While gated the member's
// inbound processing stalls (packets queue, subject to queueCap
// tail-drop) and its sends are held in an outbox. On release the outbox
// flushes, registered wake callbacks run (the core resumes its blocked
// probe/gossip loops), and the backlog drains at serviceTime per message.
func (n *Network) SetGated(name string, gated bool) {
	p, ok := n.nodes[name]
	if !ok || p.crashed || p.gated == gated {
		return
	}
	p.gated = gated
	if gated {
		return
	}
	// Releasing the gate through any path ends a drop-mode pause too:
	// dropInbound without the gate would leave the member running but
	// permanently deaf.
	p.dropInbound = false
	// Wake: flush sends that were blocked mid-flight first (their
	// content was produced before or during the block), then let the
	// core resume its loops, then start draining the backlog.
	out := p.outbox
	p.outbox = nil
	for _, o := range out {
		n.transmit(p, o.to, o.buf, o.reliable)
	}
	for _, f := range p.wakeFns {
		f()
	}
	p.maybeServe()
}

// Gated reports whether the member is currently gated.
func (n *Network) Gated(name string) bool {
	p, ok := n.nodes[name]
	return ok && p.gated
}

// OnWake registers a callback run each time the member's gate is
// released. The core uses this to resume probe/gossip/push-pull loops
// that were blocked by the anomaly.
func (n *Network) OnWake(name string, fn func()) {
	if p, ok := n.nodes[name]; ok {
		p.wakeFns = append(p.wakeFns, fn)
	}
}

// NodeStats returns a member's transport statistics.
func (n *Network) NodeStats(name string) Stats {
	if p, ok := n.nodes[name]; ok {
		return p.stats
	}
	return Stats{}
}

// TotalStats aggregates statistics across all members, detached ones
// included.
func (n *Network) TotalStats() Stats {
	total := n.retired
	for _, p := range n.nodes {
		total.Merge(p.stats)
	}
	return total
}

// QueueLen returns the member's current inbound backlog, for tests.
func (n *Network) QueueLen(name string) int {
	if p, ok := n.nodes[name]; ok {
		return p.queued()
	}
	return 0
}

// transmit moves a packet from p toward to: applies faults and latency and
// schedules delivery. It consumes one reference on buf — released on
// every drop path, and after the handler runs for delivered packets —
// so a fan-out caller passes the same buffer once per destination.
func (n *Network) transmit(p *Port, to string, buf *bufpool.Buf, reliable bool) {
	p.stats.MsgsSent++
	p.stats.BytesSent += int64(len(buf.B))

	dst, ok := n.nodes[to]
	if !ok || n.linkFailed(p.id, dst.id) {
		buf.Release()
		return
	}
	fault, haveFault := LinkFault{}, false
	if len(n.linkFaults) > 0 {
		fault, haveFault = n.linkFaults[[2]int32{p.id, dst.id}]
	}
	// The base delay is drawn before any fault intervention, so a
	// fault-dropped packet still consumes exactly the draw it would
	// have in a fault-free run — installing faults never shifts the
	// base RNG stream of unaffected traffic.
	delay := flatDelay.sample(n.rng)
	if haveFault {
		if !reliable && fault.Loss > 0 && n.faultRNG.Float64() < fault.Loss {
			dst.stats.DropsFault++
			buf.Release()
			return
		}
		// Duplication applies to unreliable traffic only: a TCP receiver
		// discards duplicate segments, so the application never sees
		// them. Reordering applies to reliable traffic too — TCP masks
		// loss and duplication but cannot mask delay (head-of-line
		// blocking on a retransmitted segment). The duplicate shares the
		// original's refcounted buffer instead of copying it; delivery is
		// read-only, so both arrivals can hand out the same bytes.
		if !reliable && fault.Duplicate > 0 && n.faultRNG.Float64() < fault.Duplicate {
			dst.stats.Duplicated++
			n.deliverAfter(dst, p.name, buf.Acquire(), flatDelay.sample(n.faultRNG))
		}
		if fault.Reorder > 0 && n.faultRNG.Float64() < fault.Reorder {
			dst.stats.Reordered++
			delay += reorderHold.sample(n.faultRNG)
		}
	}
	n.deliverAfter(dst, p.name, buf, delay)
}

// deliverAfter schedules a packet's arrival at dst, taking ownership of
// buf. The destination may have been detached (and possibly replaced)
// while the packet was in flight; such packets are dropped on delivery.
// Delivery rides a pooled scheduler event with a pooled payload — no
// allocation per packet in steady state.
func (n *Network) deliverAfter(dst *Port, from string, buf *bufpool.Buf, delay time.Duration) {
	var d *delivery
	if k := len(n.freeDeliveries); k > 0 {
		d = n.freeDeliveries[k-1]
		n.freeDeliveries[k-1] = nil
		n.freeDeliveries = n.freeDeliveries[:k-1]
	} else {
		d = &delivery{net: n}
	}
	d.dst, d.from, d.buf = dst, from, buf
	n.sched.scheduleArg(delay, runDelivery, d)
}

// LocalAddr returns the member's address (its name; the simulation uses
// a flat namespace).
func (p *Port) LocalAddr() string { return p.name }

// SendPacket sends payload to the named member. The payload is copied
// into a pooled buffer immediately (the caller's buffer is only valid
// for the duration of the call). While the sender is gated the packet is
// held in the outbox and transmitted on wake, which models a process
// blocked immediately before sending (§V-D). reliable marks TCP-modelled
// traffic, exempt from link-fault loss and duplication.
func (p *Port) SendPacket(to string, payload []byte, reliable bool) error {
	buf := bufpool.Copy(payload)
	if p.gated {
		p.outbox = append(p.outbox, outPacket{to: to, buf: buf, reliable: reliable})
		return nil
	}
	p.net.transmit(p, to, buf, reliable)
	return nil
}

// SendPacketFanout sends the same payload to every named member,
// copying it into a pooled buffer exactly once: each destination holds
// one reference on the shared buffer, consumed on its own drop or
// delivery path, so an n-way gossip fan-out costs one copy instead of
// n. Faults and latency still apply per destination, drawing the
// RNG in addrs order — the sequence of draws is identical to n
// consecutive SendPacket calls. Implements core.FanoutTransport.
func (p *Port) SendPacketFanout(addrs []string, payload []byte, reliable bool) error {
	if len(addrs) == 0 {
		return nil
	}
	buf := bufpool.Copy(payload)
	for i := 1; i < len(addrs); i++ {
		buf.Acquire()
	}
	if p.gated {
		for _, to := range addrs {
			p.outbox = append(p.outbox, outPacket{to: to, buf: buf, reliable: reliable})
		}
		return nil
	}
	for _, to := range addrs {
		p.net.transmit(p, to, buf, reliable)
	}
	return nil
}

// queued returns the inbound backlog length.
func (p *Port) queued() int { return len(p.inbox) - p.inHead }

// receive enqueues an inbound packet, tail-dropping on overflow, and
// kicks the service loop if the member is neither gated nor already
// serving. A member paused in PauseDrop mode discards inbound outright.
func (p *Port) receive(from string, buf *bufpool.Buf) {
	if p.dropInbound {
		p.stats.DropsFault++
		buf.Release()
		return
	}
	if p.queued() >= queueCap {
		p.stats.DropsOverflow++
		buf.Release()
		return
	}
	p.inbox = append(p.inbox, inPacket{from: from, buf: buf})
	p.maybeServe()
}

// maybeServe schedules processing of the next queued packet. A
// degraded member pays an extra per-packet delay on top of serviceTime,
// so its effective service rate drops and a backlog builds — the
// paper's slow-member condition.
func (p *Port) maybeServe() {
	if p.serving || p.gated || p.queued() == 0 {
		return
	}
	p.serving = true
	d := serviceTime
	if !p.degrade.IsZero() {
		d += p.degrade.sample(p.net.faultRNG)
	}
	p.net.sched.scheduleArg(d, servePort, p)
}

// serveOne processes the head-of-line packet. If the member was gated
// after the service completion was scheduled, the packet stays queued
// (the handler is what blocks, after the kernel handed the packet over —
// close enough at this resolution).
func (p *Port) serveOne() {
	p.serving = false
	if p.gated || p.queued() == 0 {
		return
	}
	pkt := p.inbox[p.inHead]
	// Zero the vacated slot so the pooled buffer is not pinned, and
	// advance the head instead of shifting the queue.
	p.inbox[p.inHead] = inPacket{}
	p.inHead++
	if p.inHead == len(p.inbox) {
		// Drained: reclaim the whole array (capacity retained).
		p.inbox = p.inbox[:0]
		p.inHead = 0
	} else if p.inHead >= queueCap {
		// The dead prefix has outgrown the queue cap; compact so the
		// backing array stays bounded by ~2× the cap. Amortized O(1):
		// at least queueCap packets were served since the last compact.
		k := copy(p.inbox, p.inbox[p.inHead:])
		for i := k; i < len(p.inbox); i++ {
			p.inbox[i] = inPacket{}
		}
		p.inbox = p.inbox[:k]
		p.inHead = 0
	}
	p.stats.MsgsDelivered++
	p.handler(pkt.from, pkt.buf.B)
	pkt.buf.Release()
	p.maybeServe()
}
