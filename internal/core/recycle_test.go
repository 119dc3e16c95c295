package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"lifeguard/internal/metrics"
	"lifeguard/internal/sim"
	"lifeguard/internal/timeutil"
	"lifeguard/internal/wire"
)

// These tests pin the steady-state protocol period: what a member does
// every period — arm its tick timers, run a probe round, merge a
// push-pull table with no news — allocates nothing, and the machinery
// that makes that so (re-armed timers, recycled probe-round records)
// never hands a record to a new round while a callback of the old one
// can still arrive.

// allocsOver returns the exact number of heap allocations that runs
// calls of f make together, after one warm-up pass of the same length.
// It is not testing.AllocsPerRun's per-run average, whose integer
// division hides an allocation made only every few runs.
func allocsOver(runs int, f func()) float64 {
	return testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			f()
		}
	})
}

// simPair is two started, joined nodes on a simulated network, each on
// its member clock (sim.NodeClock), wired as the experiment harness
// wires a cluster.
type simPair struct {
	sched *sim.Scheduler
	nodes [2]*Node
	sink  *metrics.MemSink
}

func newSimPair(t *testing.T) *simPair {
	t.Helper()
	sched := sim.NewScheduler(time.Unix(0, 0))
	network := sim.NewNetwork(sched, sim.Options{Seed: 1})
	p := &simPair{sched: sched, sink: metrics.NewMemSink()}
	for i, name := range []string{"node-000", "node-001"} {
		cfg := DefaultConfig(name)
		cfg.Clock = network.NodeClock(name)
		cfg.RNG = rand.New(rand.NewSource(int64(i) + 1))
		cfg.Metrics = p.sink
		var node *Node
		port, err := network.Attach(name, func(from string, payload []byte) { node.HandlePacket(from, payload) })
		if err != nil {
			t.Fatal(err)
		}
		cfg.Transport = port
		if node, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Shutdown)
		p.nodes[i] = node
	}
	if err := p.nodes[1].Join(p.nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProbeRoundAllocs: once warm, a full protocol period on both
// members — probe tick, ping, ack, period expiry, the record back on
// the free list, and the five gossip ticks in between — allocates
// nothing.
func TestProbeRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin: sync.Pool drops items under -race")
	}
	p := newSimPair(t)
	p.sched.RunFor(30 * time.Second)
	// Anti-entropy is TestPushPullMergeAllocs's subject; a push-pull
	// request still builds its message.
	for _, n := range p.nodes {
		n.mu.Lock()
		stopTimer(n.pushPullTimer)
		stopTimer(n.reconnectTimer)
		n.mu.Unlock()
	}

	const periods = 20
	probes := p.sink.Get(metrics.CounterProbes)
	allocs := allocsOver(periods, func() { p.sched.RunFor(time.Second) })
	if allocs != 0 {
		t.Errorf("%d protocol periods on two members allocated %.0f times, want 0", periods, allocs)
	}
	// allocsOver runs its warm-up pass too: 2·periods periods, one round
	// per member in each, every one acked.
	if got := p.sink.Get(metrics.CounterProbes) - probes; got != 4*periods {
		t.Errorf("%d probe rounds ran, want %d", got, 4*periods)
	}
	if got := p.sink.Get(metrics.CounterProbeFailures); got != 0 {
		t.Errorf("%d probe rounds failed, want 0", got)
	}
	for _, n := range p.nodes {
		n.mu.Lock()
		free, live := len(n.freeAcks), len(n.acks)
		n.mu.Unlock()
		// A tick and the previous round's period expiry share an
		// instant, tick first, so two records alternate.
		if free+live != 2 || free == 0 {
			t.Errorf("%s: %d records free and %d in flight, want 2 in all, at least one free", n.Name(), free, live)
		}
	}
}

// TestProbeTimeoutAllocs: the probe-timeout continuation on a 50-member
// node — pick the relays, send each an indirect ping and the target the
// reliable fallback ping — allocates nothing; the relay picks append
// into an array on the stack.
func TestProbeTimeoutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin: sync.Pool drops items under -race")
	}
	var b testing.B
	n := newBenchNode(&b, 50)
	if b.Failed() {
		t.Fatal("bench node setup failed")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	target := n.members["member-00000"]
	ping := n.startProbeRoundLocked(target)
	allocs := allocsOver(10, func() { n.probeTimeoutExpiredLocked(ping.SeqNo) })
	if allocs != 0 {
		t.Errorf("10 probe-timeout continuations allocated %.0f times, want 0", allocs)
	}
	if h := n.acks[ping.SeqNo]; !h.indirect || h.nacksExpected != indirectChecks {
		t.Errorf("round indirect %t with %d nacks expected, want true and %d", h.indirect, h.nacksExpected, indirectChecks)
	}
}

// TestIdleTicksAllocs: re-arming the four tick timers with Reset, as
// each tick does, allocates nothing, neither directly nor from inside
// the probe and gossip ticks, on the
// shared simulator clock (the timer is the scheduler's event) and on a
// member clock (the timer owns its event).
func TestIdleTicksAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin: sync.Pool drops items under -race")
	}
	sched := sim.NewScheduler(time.Unix(0, 0))
	network := sim.NewNetwork(sched, sim.Options{})
	clocks := map[string]timeutil.Clock{
		"sim.Clock":     network.Clock(),
		"sim.NodeClock": network.NodeClock("self"),
	}
	for name, clock := range clocks {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig("self")
			cfg.Clock = clock
			cfg.Transport = benchTransport{}
			cfg.RNG = rand.New(rand.NewSource(1))
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Start(); err != nil {
				t.Fatal(err)
			}
			defer n.Shutdown()
			pending := sched.Len()
			allocs := allocsOver(50, func() {
				n.mu.Lock()
				n.probeTimer.Reset(n.scaledLocked(n.cfg.ProbeInterval))
				n.gossipTimer.Reset(gossipInterval)
				n.pushPullTimer.Reset(n.jitterLocked(pushPullInterval))
				n.reconnectTimer.Reset(n.jitterLocked(reconnectInterval))
				n.mu.Unlock()
				// One probe tick and five gossip ticks fire and re-arm
				// themselves; the 30 s loops were just pushed out again.
				sched.RunFor(time.Second)
			})
			if allocs != 0 {
				t.Errorf("tick re-arms allocated %.0f times, want 0", allocs)
			}
			if sched.Len() != pending {
				t.Errorf("%d events pending after re-arming, want %d: a re-arm must replace, not add", sched.Len(), pending)
			}
		})
	}
}

// TestPushPullMergeAllocs: merging a 64-state table that holds no news
// allocates nothing, whether its entries are alive, suspect, dead or
// left (one wire.Alive per alive entry, and one wire.Dead per left one,
// while the messages the merge replays escaped to the heap).
func TestPushPullMergeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin: sync.Pool drops items under -race")
	}
	h := newHarness(t, nil)
	alive := make([]wire.PushPullState, 64)
	for i := range alive {
		name := fmt.Sprintf("member-%02d", i)
		alive[i] = wire.PushPullState{Name: name, Addr: name, Incarnation: 1, State: uint8(StateAlive)}
	}
	// A quarter each: alive, suspect, dead (merged as a suspicion) and
	// left.
	mixed := slices.Clone(alive)
	for i := range mixed {
		mixed[i].State = uint8(StateAlive + State(i%4))
	}
	merge := func(states []wire.PushPullState) {
		h.node.mu.Lock()
		h.node.mergeRemoteStateLocked(states)
		h.node.mu.Unlock()
	}
	merge(alive)
	merge(mixed)
	if got, want := h.node.NumAlive(), len(alive)*3/4+1; got != want {
		t.Fatalf("%d members alive or suspect after the merges, want %d", got, want)
	}
	for _, states := range [][]wire.PushPullState{alive, mixed} {
		if allocs := allocsOver(10, func() { merge(states) }); allocs != 0 {
			t.Errorf("10 no-news merges of %d states allocated %.0f times, want 0", len(states), allocs)
		}
	}
}

// manualClock is a timeutil.Clock whose timers only fire when the test
// calls them, and whose Stop can be told to report false for an armed
// timer: the real clock's "the callback has been started in its own
// goroutine and is waiting for the node lock" made deterministic.
type manualClock struct {
	timers []*manualTimer
}

type manualTimer struct {
	f     func()
	armed bool
	d     time.Duration

	// inFlight makes Stop and Reset report false although the timer is
	// armed; the test delivers the callback itself, later.
	inFlight bool
}

func (c *manualClock) Now() time.Time { return time.Unix(0, 0) }

func (c *manualClock) AfterFunc(d time.Duration, f func()) timeutil.Timer {
	t := &manualTimer{f: f, armed: true, d: d}
	c.timers = append(c.timers, t)
	return t
}

func (t *manualTimer) Stop() bool {
	was := t.armed && !t.inFlight
	t.armed = false
	return was
}

func (t *manualTimer) Reset(d time.Duration) bool {
	was := t.Stop()
	t.armed, t.d = true, d
	return was
}

// fire delivers the timer's callback, as its expiry or as the late
// arrival of one that was in flight.
func (t *manualTimer) fire() {
	t.armed, t.inFlight = false, false
	t.f()
}

// TestAckRecycleStaleCallback is the quiet rule's reason, step by step:
// round 1 is acked while its timeout callback is already in flight (Stop
// says false, the callback has not entered), the period ends, round 2
// starts, and only then does round 1's callback get the lock. It must
// find round 1's record as round 1 left it and do nothing. Were the
// record reused regardless, the callback would read round 2's sequence
// number, see no ack yet, and escalate a healthy probe the instant it
// started — the early timeout the paper traces false positives to.
func TestAckRecycleStaleCallback(t *testing.T) {
	clock := &manualClock{}
	h := newHarness(t, func(cfg *Config) { cfg.Clock = clock })
	h.autoAck = false
	h.addMember("peer", 1)
	h.addMember("relay", 1) // so that an escalation has an indirect path to show itself on
	probeTick := clock.timers[0]
	if probeTick.d != h.node.cfg.ProbeInterval {
		t.Fatalf("first timer armed for %v, want the probe tick's %v", probeTick.d, h.node.cfg.ProbeInterval)
	}

	// startRound fires the probe tick and returns the new round's
	// sequence number, record and two timers.
	startRound := func() (uint32, *ackHandler, *manualTimer, *manualTimer) {
		t.Helper()
		h.clearSent()
		probeTick.fire()
		pings := h.sentOfType(wire.TypePing)
		if len(pings) != 1 {
			t.Fatalf("probe tick sent %d pings, want 1", len(pings))
		}
		seq := pings[0].msg.(*wire.Ping).SeqNo
		rec := h.node.acks[seq]
		if rec == nil {
			t.Fatalf("no record for round %d", seq)
		}
		return seq, rec, rec.timeoutTimer.(*manualTimer), rec.periodTimer.(*manualTimer)
	}
	ack := func(seq uint32, from string) {
		h.inject(from, &wire.Ack{SeqNo: seq, Source: from})
	}

	seq1, rec1, timeout1, period1 := startRound()
	target1 := rec1.target.Name
	timeout1.inFlight = true
	ack(seq1, target1)
	period1.fire()
	if len(h.node.acks) != 0 {
		t.Fatalf("round 1 still registered after its period")
	}
	if len(h.node.freeAcks) != 0 {
		t.Fatalf("round 1's record was recycled although its timeout timer was not quiet")
	}

	seq2, rec2, timeout2, period2 := startRound()
	if rec2 == rec1 || timeout2 == timeout1 {
		t.Fatalf("round 2 reuses round 1's record or timer while round 1's timeout callback is in flight")
	}
	h.clearSent()
	timeout1.fire() // round 1's late callback
	if n := len(h.sent); n != 0 {
		t.Fatalf("round 1's late timeout callback made round 2 send %d packets (escalated a healthy probe)", n)
	}
	if rec2.indirect || rec1.seq != seq1 {
		t.Fatalf("round 1's late timeout callback touched round 2 (indirect=%v) or found its record re-numbered (%d, was %d)", rec2.indirect, rec1.seq, seq1)
	}

	// Round 2 completes normally, and — both its timers quiet — its
	// record is the one round 3 gets.
	ack(seq2, rec2.target.Name)
	period2.fire()
	if got := h.sink.Get(metrics.CounterProbeFailures); got != 0 {
		t.Fatalf("%d probe failures counted, want 0", got)
	}
	if _, rec3, _, _ := startRound(); rec3 != rec2 {
		t.Fatalf("round 3 did not reuse round 2's quiet record")
	}
}

// delayedAckTransport delivers every packet to the peer node on its own
// goroutine, acks only after a delay chosen to land them around the
// probe timeout, so that on the real clock acks, timeout callbacks and
// period callbacks race for the node lock as they do in production. It
// checks the one thing a record reused too early would break: a round
// never escalates (here: the reliable fallback ping, there being no
// third member to relay) sooner than ProbeTimeout after it started.
type delayedAckTransport struct {
	t       *testing.T
	addr    string
	peer    *Node
	timeout time.Duration
	wg      *sync.WaitGroup

	mu     sync.Mutex
	rng    *rand.Rand
	starts map[uint32]time.Time // round start, by sequence number
	early  int
}

func (d *delayedAckTransport) LocalAddr() string { return d.addr }

func (d *delayedAckTransport) SendPacket(_ string, payload []byte, reliable bool) error {
	msgs, err := wire.DecodePacket(payload) // allocating decoder: the messages outlive the call
	if err != nil {
		d.t.Errorf("undecodable packet: %v", err)
		return nil
	}
	var delay time.Duration
	d.mu.Lock()
	for _, m := range msgs {
		switch m := m.(type) {
		case *wire.Ping:
			if start, ok := d.starts[m.SeqNo]; reliable && ok && time.Since(start) < d.timeout {
				d.early++
			}
		case *wire.Ack:
			delay = d.timeout/2 + time.Duration(d.rng.Int63n(int64(d.timeout)))
		}
	}
	d.mu.Unlock()
	owned := append([]byte(nil), payload...)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		time.Sleep(delay)
		d.peer.HandlePacket(d.addr, owned)
	}()
	return nil
}

// IncrCounter makes the transport the node's metrics sink too: the
// probes counter is bumped under the node lock as a round starts, before
// its timers are armed, which is the earliest a round's clock can start.
// With two members nothing is ever relayed, so a node's sequence numbers
// simply count its rounds.
func (d *delayedAckTransport) IncrCounter(name string, _ int64) {
	if name != metrics.CounterProbes {
		return
	}
	d.mu.Lock()
	d.starts[uint32(len(d.starts)+1)] = time.Now()
	d.mu.Unlock()
}

// TestAckRecycleRealClock runs the recycling where its hazard lives: two
// members on the real clock at millisecond intervals for a second, the
// probe timeout as long as the period (so a round's timeout, its period
// expiry and the next tick all come due together) and every ack
// delivered, about then. Run with -race -count=10. Whatever the
// interleaving: no data race, no round escalated before its own timeout
// had passed, and after a Shutdown that lands mid-round no goroutine
// left behind.
func TestAckRecycleRealClock(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock test")
	}
	before := runtime.NumGoroutine()
	const interval = 2 * time.Millisecond
	var wg sync.WaitGroup
	var nodes [2]*Node
	var trs [2]*delayedAckTransport
	for i, name := range []string{"a", "b"} {
		trs[i] = &delayedAckTransport{
			t: t, addr: name, timeout: interval, wg: &wg,
			rng: rand.New(rand.NewSource(int64(i) + 7)), starts: make(map[uint32]time.Time),
		}
		cfg := DefaultConfig(name)
		cfg.Transport = trs[i]
		cfg.Metrics = trs[i]
		cfg.Clock = timeutil.RealClock{}
		cfg.RNG = rand.New(rand.NewSource(int64(i) + 1))
		cfg.ProbeInterval, cfg.ProbeTimeout = interval, interval
		// Late acks fail rounds and raise suspicions, which the peer
		// refutes; neither awareness back-off nor a death may end the
		// probing before the second is up.
		cfg.LHAProbe = false
		cfg.SuspicionAlpha = 10000
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	trs[0].peer, trs[1].peer = nodes[1], nodes[0]
	for _, n := range nodes {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[1].Join("a"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second)
	for _, n := range nodes {
		n.Shutdown()
	}
	wg.Wait()

	for i, tr := range trs {
		tr.mu.Lock()
		rounds, early := len(tr.starts), tr.early
		tr.mu.Unlock()
		if rounds < 50 {
			t.Errorf("%s ran %d probe rounds in a second at a %v period, want at least 50", nodes[i].Name(), rounds, interval)
		}
		if early != 0 {
			t.Errorf("%s escalated %d rounds before their timeout had passed: a callback closed a round it did not belong to", nodes[i].Name(), early)
		}
		nodes[i].mu.Lock()
		for seq, rec := range nodes[i].acks {
			if rec.seq != seq {
				t.Errorf("%s: record registered under round %d serves round %d", nodes[i].Name(), seq, rec.seq)
			}
		}
		nodes[i].mu.Unlock()
	}

	// Timer callbacks that had started before Shutdown find the flag
	// and return; give them a moment, then nothing of ours may be left.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after Shutdown", before, after)
	}
}
