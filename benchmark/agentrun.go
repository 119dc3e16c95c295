package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"syscall"
	"time"

	"lifeguard"
	"lifeguard/internal/metrics"
	"lifeguard/internal/nettrans"
	"lifeguard/internal/timeutil"
	"lifeguard/internal/wire"
)

const (
	// opTimeout is how long a probe or join may go unanswered before it
	// counts as failed.
	opTimeout = time.Second

	// bootTimeout bounds each convergence wait during set-up.
	bootTimeout = 10 * time.Second
)

// bindTransport binds a loopback transport on a kernel-chosen port.
// nettrans.New takes the UDP port the kernel hands out and then needs
// the same TCP port; when some connection already holds it the listen
// fails with EADDRINUSE, and a fresh pair is the remedy.
func bindTransport() (*lifeguard.UDPTransport, error) {
	var err error
	for attempt := 0; attempt < 32; attempt++ {
		var tr *lifeguard.UDPTransport
		if tr, err = lifeguard.NewUDPTransport("127.0.0.1:0"); err == nil {
			return tr, nil
		}
		if !errors.Is(err, syscall.EADDRINUSE) {
			break
		}
	}
	return nil, fmt.Errorf("bind loopback transport: %w", err)
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// member is one in-process agent: a node on its own UDP/TCP transport,
// wired as cmd/lifeguard-agent wires it with -http (counter sink and
// telemetry recorder on), minus the log lines.
type member struct {
	name string
	node *lifeguard.Node
	tr   *lifeguard.UDPTransport
	st   *spanStack // nil when untraced
	rx   atomic.Int64
}

// api runs a driver call into the node, as a root span when traced.
func (m *member) api(f func() error) error {
	if m.st == nil {
		return f()
	}
	m.st.beginRoot(layerAPI)
	defer m.st.endRoot()
	return f()
}

// mesh is a converged group of members.
type mesh struct {
	members []*member
}

func (ms *mesh) close() {
	for _, m := range ms.members {
		m.node.Shutdown()
	}
	for _, m := range ms.members {
		// Close waits for the delivery loops and in-flight stream sends.
		_ = m.tr.Close()
	}
}

// buildMesh boots n members and joins them through member 0. observe,
// when non-nil, sees every packet member i's handler has processed.
//
// Convergence is driven by work, not by waiting out gossip timers:
// every member joins the seed, and once the seed knows them all every
// member joins again, which hands each the full table in one exchange.
func buildMesh(n int, seed int64, tr *tracer, observe func(i int, payload []byte)) (*mesh, error) {
	ms := &mesh{}
	ok := false
	defer func() {
		if !ok {
			ms.close()
		}
	}()
	for i := 0; i < n; i++ {
		t, err := bindTransport()
		if err != nil {
			return nil, err
		}
		m := &member{name: fmt.Sprintf("agent-%02d", i), tr: t}
		cfg := lifeguard.DefaultConfig(m.name)
		cfg.Addr = t.LocalAddr()
		cfg.Transport = t
		cfg.RNG = rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
		cfg.Metrics = metrics.NewMemSink()
		rec, err := lifeguard.NewNodeTelemetry(lifeguard.NodeTelemetryConfig{})
		if err != nil {
			_ = t.Close()
			return nil, err
		}
		cfg.Telemetry = rec
		if tr != nil {
			m.st = tr.newStack(m.name)
			cfg.Transport = &tracedTransport{t, m.st}
			cfg.Clock = &tracedClock{timeutil.RealClock{}, m.st}
			cfg.Metrics = &tracedSink{cfg.Metrics, m.st}
		}
		node, err := lifeguard.NewNode(cfg)
		if err != nil {
			_ = t.Close()
			return nil, err
		}
		m.node = node
		ms.members = append(ms.members, m)

		handler := nettrans.PacketHandler(node.HandlePacket)
		if tr != nil || observe != nil {
			i := i
			handler = func(from string, payload []byte) {
				if m.st != nil {
					m.rx.Add(1)
					m.st.beginRoot(layerInbound)
					node.HandlePacket(from, payload)
					m.st.endRoot()
				} else {
					node.HandlePacket(from, payload)
				}
				if observe != nil {
					observe(i, payload)
				}
			}
		}
		t.Run(handler)
		if err := m.api(node.Start); err != nil {
			return nil, err
		}
	}

	seedAddr := ms.members[0].tr.LocalAddr()
	joinAll := func() error {
		for _, m := range ms.members[1:] {
			if err := m.api(func() error { return m.node.Join(seedAddr) }); err != nil {
				return fmt.Errorf("join %s: %w", m.name, err)
			}
		}
		return nil
	}
	if err := joinAll(); err != nil {
		return nil, err
	}
	if !waitUntil(bootTimeout, func() bool { return ms.members[0].node.NumAlive() == n }) {
		return nil, fmt.Errorf("seed sees %d of %d members after %v", ms.members[0].node.NumAlive(), n, bootTimeout)
	}
	if err := joinAll(); err != nil {
		return nil, err
	}
	converged := func() bool {
		for _, m := range ms.members {
			if m.node.NumAlive() != n {
				return false
			}
		}
		return true
	}
	if !waitUntil(bootTimeout, converged) {
		return nil, fmt.Errorf("mesh of %d not converged after %v", n, bootTimeout)
	}
	ok = true
	return ms, nil
}

// rxPackets totals the packets the members' handlers processed.
func (ms *mesh) rxPackets() int64 {
	var total int64
	for _, m := range ms.members {
		total += m.rx.Load()
	}
	return total
}

// agentValues fills the per-layer values shared by both agent workloads.
func agentValues(tr *tracer, ms *mesh, rxBefore int64, res *repResult) {
	if tr == nil {
		return
	}
	selfSum, _ := layerValues(tr, false, res.vals, res.vals)
	res.vals["nettrans.rx_pkts"] = float64(ms.rxPackets() - rxBefore)
	if res.cpuS > 0 {
		res.vals["trace.self_sum_pct"] = 100 * selfSum.Seconds() / res.cpuS
	}
}

// ---- agent-probe ----

const (
	probeWindow      = 16
	probeRing        = 64 // send-time slots; any power of two above the window
	probeAckBacklog  = 2 * probeWindow
	probeIdleTick    = 100 * time.Millisecond
	probeIdleTimeout = int(opTimeout / probeIdleTick)
)

type ackInfo struct {
	seq   uint32
	rttNs int64
}

// probeGen is the closed-loop load generator: a transport that is not a
// member, pinging one member and matching acks by sequence number.
type probeGen struct {
	tr         *lifeguard.UDPTransport
	base       time.Time
	targetAddr string
	targetName string

	sentAt  [probeRing]atomic.Int64 // send time of seq, by seq % probeRing
	acks    chan ackInfo            // sized to hold every outstanding probe's ack
	strays  atomic.Int64            // acks from the wrong member or with no slot
	seq     uint32
	pingBuf []byte
}

func newProbeGen(target *member) (*probeGen, error) {
	tr, err := bindTransport()
	if err != nil {
		return nil, err
	}
	g := &probeGen{
		tr: tr, base: time.Now(),
		targetAddr: target.tr.LocalAddr(), targetName: target.name,
		acks: make(chan ackInfo, probeAckBacklog),
	}
	var u wire.Unpacker // the UDP read loop is the only caller
	tr.Run(func(_ string, payload []byte) {
		now := int64(time.Since(g.base))
		msgs, err := u.Decode(payload)
		if err != nil {
			g.strays.Add(1)
			return
		}
		for _, msg := range msgs {
			ack, isAck := msg.(*wire.Ack)
			if !isAck {
				continue // piggybacked gossip
			}
			if ack.Source != g.targetName {
				g.strays.Add(1)
				continue
			}
			select {
			case g.acks <- ackInfo{ack.SeqNo, now - g.sentAt[ack.SeqNo%probeRing].Load()}:
			default:
				g.strays.Add(1)
			}
		}
	})
	return g, nil
}

// run completes total probes with at most window outstanding and
// returns the round-trip times of those that were acked, the number
// that were not, and the elapsed time.
func (g *probeGen) run(total, window int, rtts []float64) ([]float64, int64, time.Duration) {
	ticker := time.NewTicker(probeIdleTick)
	defer ticker.Stop()
	var failed int64
	sent, done, outstanding := 0, 0, 0
	floor := g.seq + 1 // acks below this belong to probes already given up on
	idleTicks, doneAtTick := 0, 0
	start := time.Now()
	for done < total {
		for outstanding < window && sent < total {
			g.seq++
			ping := wire.Ping{SeqNo: g.seq, Target: g.targetName}
			g.pingBuf = wire.AppendMarshal(g.pingBuf[:0], &ping)
			g.sentAt[g.seq%probeRing].Store(int64(time.Since(g.base)))
			sent++
			if err := g.tr.SendPacket(g.targetAddr, g.pingBuf, false); err != nil {
				failed++
				done++
				continue
			}
			outstanding++
		}
		if outstanding == 0 {
			continue
		}
		select {
		case a := <-g.acks:
			if a.seq < floor {
				continue
			}
			outstanding--
			done++
			rtts = append(rtts, float64(a.rttNs))
		case <-ticker.C:
			if done != doneAtTick {
				doneAtTick, idleTicks = done, 0
				continue
			}
			if idleTicks++; idleTicks >= probeIdleTimeout {
				// Nothing came back for opTimeout: every outstanding
				// probe has failed.
				failed += int64(outstanding)
				done += outstanding
				outstanding, idleTicks = 0, 0
				floor = g.seq + 1
			}
		}
	}
	return rtts, failed, time.Since(start)
}

// probeWorkload sizes agent-probe; tests run a smaller one.
type probeWorkload struct {
	members    int
	latencyOps int // closed loop at window 1
	throughOps int // closed loop at window probeWindow
}

var defaultProbeWorkload = probeWorkload{members: 16, latencyOps: 20000, throughOps: 200000}

func (w probeWorkload) rep(seed int64, tr *tracer) (repResult, error) {
	var res repResult
	setupStart := time.Now()
	ms, err := buildMesh(w.members, seed, tr, nil)
	if err != nil {
		return res, err
	}
	defer ms.close()
	gen, err := newProbeGen(ms.members[0])
	if err != nil {
		return res, err
	}
	defer gen.tr.Close()
	res.setupS = time.Since(setupStart).Seconds()

	// Warm the path (socket buffers, pools, interned names) untimed.
	warmup := w.throughOps / 100
	if _, failed, _ := gen.run(warmup, probeWindow, nil); failed > 0 {
		return res, fmt.Errorf("agent-probe: %d of %d warm-up probes unanswered", failed, warmup)
	}

	rxBefore := ms.rxPackets()
	if tr != nil {
		tr.mark()
	}
	m := startMeasure()
	lat, failedLat, _ := gen.run(w.latencyOps, 1, make([]float64, 0, w.latencyOps))
	thr, failedThr, thrElapsed := gen.run(w.throughOps, probeWindow, make([]float64, 0, w.throughOps))
	m.stop(&res)

	res.attempted = int64(w.latencyOps + w.throughOps)
	res.failed = failedLat + failedThr
	res.ops = int64(len(lat) + len(thr))
	res.rateOps, res.rateS = int64(len(thr)), thrElapsed.Seconds()
	if strays := gen.strays.Load(); strays > 0 {
		return res, fmt.Errorf("agent-probe: %d acks from the wrong member or beyond the window", strays)
	}
	res.vals = make(map[string]float64)
	if tr == nil {
		_, p99 := tailPercentile(lat, 99)
		res.vals["agent.probe_rtt_p50_us"] = median(lat) / 1e3
		res.vals["agent.probe_rtt_p99_us"] = p99 / 1e3
		res.vals["runtime.allocs_per_op"] = res.mallocs / float64(res.ops)
	}
	agentValues(tr, ms, rxBefore, &res)
	return res, nil
}

// ---- agent-join ----

const (
	joinPairs    = 4
	joinFirstDst = 1 + joinPairs // joiners are members 1..4, their seeds 5..8
)

// pushPullRespSource returns the Source of a bare push-pull response
// packet without decoding its state table: the type tag, then the
// source as a length-prefixed string.
func pushPullRespSource(payload []byte) (string, bool) {
	if len(payload) < 2 || wire.MsgType(payload[0]) != wire.TypePushPullResp {
		return "", false
	}
	n, k := binary.Uvarint(payload[1:])
	if k <= 0 || uint64(len(payload)-1-k) < n {
		return "", false
	}
	return string(payload[1+k : 1+k+int(n)]), true
}

// joinWorkload sizes agent-join; tests run a smaller one. 2000
// exchanges per pair keeps every destination port far below the
// loopback's ephemeral range of source ports (about 28k), all of which
// linger in TIME_WAIT for a minute.
type joinWorkload struct {
	members int // at least 1 + 2*joinPairs
	perPair int
}

var defaultJoinWorkload = joinWorkload{members: 64, perPair: 2000}

func (w joinWorkload) rep(seed int64, tr *tracer) (repResult, error) {
	var res repResult
	// done[k] signals that joiner k's handler has merged a response
	// from its own seed. Periodic push-pull with some other member also
	// produces responses; the source check keeps those out.
	var done [joinPairs]chan struct{}
	for k := range done {
		done[k] = make(chan struct{}, 1)
	}
	seedName := func(k int) string { return fmt.Sprintf("agent-%02d", joinFirstDst+k) }
	observe := func(i int, payload []byte) {
		k := i - 1
		if k < 0 || k >= joinPairs {
			return
		}
		if src, ok := pushPullRespSource(payload); ok && src == seedName(k) {
			select {
			case done[k] <- struct{}{}:
			default:
			}
		}
	}

	setupStart := time.Now()
	ms, err := buildMesh(w.members, seed, tr, observe)
	if err != nil {
		return res, err
	}
	defer ms.close()
	res.setupS = time.Since(setupStart).Seconds()

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	exchange := func(k int) (time.Duration, bool) {
		joiner, seedAddr := ms.members[1+k], ms.members[joinFirstDst+k].tr.LocalAddr()
		select {
		case <-done[k]: // a response that outlived its exchange's deadline
		default:
		}
		start := time.Now()
		if err := joiner.api(func() error { return joiner.node.Join(seedAddr) }); err != nil {
			return 0, false
		}
		timer.Reset(opTimeout)
		select {
		case <-done[k]:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			return time.Since(start), true
		case <-timer.C:
			return 0, false
		}
	}
	for i := 0; i < w.perPair/10*joinPairs; i++ {
		if _, ok := exchange(i % joinPairs); !ok {
			return res, fmt.Errorf("agent-join: warm-up exchange %d unanswered", i)
		}
	}

	rxBefore := ms.rxPackets()
	if tr != nil {
		tr.mark()
	}
	total := joinPairs * w.perPair
	lat := make([]float64, 0, total)
	m := startMeasure()
	for i := 0; i < total; i++ {
		if d, ok := exchange(i % joinPairs); ok {
			lat = append(lat, float64(d))
		}
	}
	m.stop(&res)

	res.attempted = int64(total)
	res.failed = int64(total - len(lat))
	res.ops = int64(len(lat))
	res.vals = make(map[string]float64)
	if tr == nil {
		_, p99 := tailPercentile(lat, 99)
		res.vals["agent.join_rtt_p50_us"] = median(lat) / 1e3
		res.vals["agent.join_rtt_p99_us"] = p99 / 1e3
		res.vals["runtime.allocs_per_op"] = res.mallocs / float64(res.ops)
	}
	agentValues(tr, ms, rxBefore, &res)
	return res, nil
}
