package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lifeguard/internal/broadcast"
	"lifeguard/internal/bufpool"
	"lifeguard/internal/coords"
	"lifeguard/internal/sim"
	"lifeguard/internal/suspicion"
	"lifeguard/internal/telemetry"
	"lifeguard/internal/wire"
)

// Kernels call one layer's public API directly for a fixed number of
// iterations. They are the same on every workload: a kernel that moves
// while a workload's end-to-end number does not says the layer is not
// on that workload's path.

// nsPerOp times iters calls of f.
func nsPerOp(iters int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(iters)
}

func kernelNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s-%03d", prefix, i)
	}
	return names
}

// runKernels fills out with every kernel metric.
func runKernels(seed int64, out map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))

	// Scheduler hold model at 100k pending events: one insert and one
	// pop per iteration keeps the backlog constant.
	sched := sim.NewScheduler(time.Unix(0, 0))
	nop := func() {}
	for i := 0; i < 100000; i++ {
		sched.Schedule(time.Duration(rng.Int63n(int64(time.Second))), nop)
	}
	out["sim.sched.insert_pop_ns"] = nsPerOp(300000, func(int) {
		sched.Schedule(time.Duration(rng.Int63n(int64(time.Second))), nop)
		sched.Step()
	})

	payload := make([]byte, 256)
	out["bufpool.copy_release_ns"] = nsPerOp(2000000, func(int) {
		bufpool.Copy(payload).Release()
	})

	// Broadcast queue at the simulated cluster size: 32 members'
	// updates replaced round-robin, one MTU-sized drain per 8 updates.
	q := broadcast.NewQueue(func() int { return 128 }, 4)
	members := kernelNames("m", 32)
	update := make([]byte, 40)
	emit := func([]byte) {}
	out["broadcast.queue_drain_ns"] = nsPerOp(1000000, func(i int) {
		q.Queue(members[i%len(members)], update)
		if i%8 == 0 {
			q.GetBroadcastsInto(2, 1400, emit)
		}
	})

	// One suspicion lifecycle as the core drives it: raised, confirmed
	// by K=3 independent accusers, stopped by a refutation. Reported per
	// confirmation, the raise and stop included.
	ssched := sim.NewScheduler(time.Unix(0, 0))
	clock := sim.NewClock(ssched)
	expired := func(int) {}
	const suspicions = 200000
	out["suspicion.confirm_ns"] = nsPerOp(suspicions, func(i int) {
		s := suspicion.New(clock, "a", 3, 10*time.Second, 60*time.Second, expired)
		s.Confirm("b")
		s.Confirm("c")
		s.Confirm("d")
		s.Stop()
		if i%1024 == 0 {
			// Let the scheduler discard the cancelled timers.
			ssched.RunFor(2 * time.Minute)
		}
	}) / 3

	// Codec: the failure detector's common packet, a ping carrying 16
	// piggybacked alive updates (pre-encoded, as the broadcast queue
	// stores them), and the push-pull table of the large workload.
	alives := make([][]byte, 16)
	for i, name := range kernelNames("node", len(alives)) {
		alives[i] = wire.Marshal(&wire.Alive{Incarnation: uint64(i + 1), Node: name, Addr: name})
	}
	ping := &wire.Ping{SeqNo: 7, Target: "node-000", Source: "node-001"}
	encode := func() []byte {
		p := wire.AcquirePacker()
		p.Add(ping)
		for _, a := range alives {
			p.AddRaw(a)
		}
		pkt := p.Finish()
		p.Release()
		return pkt
	}
	pkt := append([]byte(nil), encode()...)
	var u wire.Unpacker
	if msgs, err := u.Decode(pkt); err != nil || len(msgs) != 1+len(alives) {
		return fmt.Errorf("codec kernel: decoded %d messages, err %v", len(msgs), err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const codecIters = 300000
	out["wire.encode_ns"] = nsPerOp(codecIters, func(int) { encode() })
	out["wire.decode_ns"] = nsPerOp(codecIters, func(int) { _, _ = u.Decode(pkt) })
	runtime.ReadMemStats(&after)
	out["wire.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / (2 * codecIters)

	states := make([]wire.PushPullState, 384)
	for i, name := range kernelNames("node", len(states)) {
		states[i] = wire.PushPullState{Name: name, Addr: name, Incarnation: 1, State: 1}
	}
	resp := &wire.PushPullResp{Source: "node-000", States: states}
	var table []byte
	out["wire.pushpull_encode_ns"] = nsPerOp(10000, func(int) { table = wire.AppendMarshal(table[:0], resp) })
	if msgs, err := u.Decode(table); err != nil || len(msgs) != 1 {
		return fmt.Errorf("push-pull kernel: decoded %d messages, err %v", len(msgs), err)
	}
	out["wire.pushpull_decode_ns"] = nsPerOp(10000, func(int) { _, _ = u.Decode(table) })

	// Vivaldi: one coordinate update per acked probe, against 64 peers
	// at LAN round-trip times; and the relay-selection ranking.
	ccfg := coords.DefaultConfig()
	ccfg.Rand = rng.Float64
	client, err := coords.NewClient(ccfg)
	if err != nil {
		return fmt.Errorf("coords kernel: %w", err)
	}
	peers := kernelNames("peer", 64)
	peerCoords := make([]*coords.Coordinate, len(peers))
	for i := range peerCoords {
		c := coords.NewCoordinate(ccfg)
		for d := range c.Vec {
			c.Vec[d] = rng.Float64() * 1e-3
		}
		peerCoords[i] = c
	}
	rtt := func() time.Duration { return 200*time.Microsecond + time.Duration(rng.Int63n(int64(time.Millisecond))) }
	var updateErr error
	out["coords.update_ns"] = nsPerOp(300000, func(i int) {
		if _, err := client.Update(peers[i%len(peers)], peerCoords[i%len(peers)], rtt()); err != nil {
			updateErr = err
		}
	})
	if updateErr != nil {
		return fmt.Errorf("coords kernel: %w", updateErr)
	}
	var ranked []int
	out["coords.nearest_ns"] = nsPerOp(100000, func(i int) {
		ranked = client.NearestPeerIndexes(peers[i%len(peers)], peers, 3, ranked[:0])
	})

	rec, err := telemetry.NewNodeRecorder(telemetry.NodeConfig{})
	if err != nil {
		return fmt.Errorf("telemetry kernel: %w", err)
	}
	out["telemetry.record_rtt_ns"] = nsPerOp(1000000, func(i int) {
		rec.RecordRTT(peers[i%len(peers)], time.Millisecond)
	})
	return nil
}
