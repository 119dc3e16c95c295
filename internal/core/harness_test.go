package core

import (
	"math/rand"
	"testing"
	"time"

	"lifeguard/internal/metrics"
	"lifeguard/internal/sim"
	"lifeguard/internal/wire"
)

// harness drives a single Node with a virtual clock and a transport
// that captures every outgoing packet, decoded.
type harness struct {
	t     *testing.T
	sched *sim.Scheduler
	clock *sim.Clock
	node  *Node
	sink  *metrics.MemSink

	sent    []sentPacket
	blocked bool
	events  []string

	// autoAck makes the transport answer the node's pings on behalf of
	// live peers, so the node's own probe loop does not falsely suspect
	// everyone. Names in unresponsive stop answering.
	autoAck      bool
	unresponsive map[string]bool

	// sendErr, when set, is what every send returns (after capture).
	sendErr error
}

type sentPacket struct {
	to       string
	reliable bool
	msgs     []wire.Message
	payload  []byte    // the encoded packet, copied
	at       time.Time // virtual time of the send
}

type captureTransport struct {
	h    *harness
	addr string
}

func (c *captureTransport) LocalAddr() string { return c.addr }

func (c *captureTransport) SendPacket(to string, payload []byte, reliable bool) error {
	msgs, err := wire.DecodePacket(payload)
	if err != nil {
		c.h.t.Fatalf("node sent undecodable packet: %v", err)
	}
	c.h.sent = append(c.h.sent, sentPacket{to: to, reliable: reliable, msgs: msgs, payload: append([]byte(nil), payload...), at: c.h.clock.Now()})
	if c.h.sendErr != nil {
		return c.h.sendErr
	}

	if c.h.autoAck && !c.h.unresponsive[to] {
		for _, m := range msgs {
			ping, ok := m.(*wire.Ping)
			if !ok || ping.Target != to {
				continue
			}
			seq, peer := ping.SeqNo, to
			// Deliver the ack asynchronously (the node lock is held
			// here), like a 1 ms network round trip.
			c.h.sched.Schedule(time.Millisecond, func() {
				c.h.node.HandlePacket(peer, wire.EncodePacket([]wire.Message{
					&wire.Ack{SeqNo: seq, Source: peer},
				}))
			})
		}
	}
	return nil
}

type eventRecorder struct{ h *harness }

func (e eventRecorder) NotifyJoin(m Member)    { e.h.events = append(e.h.events, "join:"+m.Name) }
func (e eventRecorder) NotifySuspect(m Member) { e.h.events = append(e.h.events, "suspect:"+m.Name) }
func (e eventRecorder) NotifyAlive(m Member)   { e.h.events = append(e.h.events, "alive:"+m.Name) }
func (e eventRecorder) NotifyUpdate(m Member)  { e.h.events = append(e.h.events, "update:"+m.Name) }
func (e eventRecorder) NotifyDead(m Member)    { e.h.events = append(e.h.events, "dead:"+m.Name) }

// newHarness builds a started node named "self". configure may adjust
// the config before the node is created.
func newHarness(t *testing.T, configure func(*Config)) *harness {
	t.Helper()
	h := &harness{
		t:            t,
		sched:        sim.NewScheduler(time.Unix(0, 0)),
		sink:         metrics.NewMemSink(),
		autoAck:      true,
		unresponsive: make(map[string]bool),
	}
	h.clock = sim.NewClock(h.sched)

	cfg := DefaultConfig("self")
	cfg.Clock = h.clock
	cfg.Transport = &captureTransport{h: h, addr: "self"}
	cfg.RNG = rand.New(rand.NewSource(1))
	cfg.Events = eventRecorder{h: h}
	cfg.Metrics = h.sink
	cfg.Blocked = func() bool { return h.blocked }
	if configure != nil {
		configure(cfg)
	}

	node, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.node = node
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Shutdown)
	return h
}

// inject delivers one message to the node as if from the given peer.
func (h *harness) inject(from string, msgs ...wire.Message) {
	h.t.Helper()
	h.node.HandlePacket(from, wire.EncodePacket(msgs))
}

// addMember introduces a member via an alive message.
func (h *harness) addMember(name string, inc uint64) {
	h.t.Helper()
	h.inject(name, &wire.Alive{Incarnation: inc, Node: name, Addr: name})
}

// run advances virtual time.
func (h *harness) run(d time.Duration) { h.sched.RunFor(d) }

// clearSent discards captured packets (e.g. the initial alive burst).
func (h *harness) clearSent() { h.sent = nil }

// drainQueue spends every queued gossip update without sending it.
func (h *harness) drainQueue() {
	for h.node.queue.Len() > 0 {
		h.node.queue.GetBroadcastsInto(2, 1400, func([]byte) {})
	}
}

// sentOfType returns every captured message of the given type, with the
// packet it travelled in.
func (h *harness) sentOfType(t wire.MsgType) []struct {
	pkt sentPacket
	msg wire.Message
} {
	var out []struct {
		pkt sentPacket
		msg wire.Message
	}
	for _, pkt := range h.sent {
		for _, m := range pkt.msgs {
			if m.Type() == t {
				out = append(out, struct {
					pkt sentPacket
					msg wire.Message
				}{pkt, m})
			}
		}
	}
	return out
}

// state returns the node's view of a member, failing the test if the
// member is unknown.
func (h *harness) state(name string) Member {
	h.t.Helper()
	m, ok := h.node.Member(name)
	if !ok {
		h.t.Fatalf("member %q unknown", name)
	}
	return m
}
