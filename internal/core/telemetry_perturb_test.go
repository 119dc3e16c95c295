package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"
	"time"

	"lifeguard/internal/core"
	"lifeguard/internal/sim"
	"lifeguard/internal/telemetry"
)

// sendLog wraps a member's simulated port and folds every send — the
// sender, destinations, reliability and payload bytes, in call order —
// into one digest shared by the whole cluster. It keeps the fan-out
// shape, so the core sends exactly as it does on a bare port.
type sendLog struct {
	*sim.Port
	h hash.Hash
	n *int
}

func (s sendLog) note(addrs []string, payload []byte, reliable bool) {
	*s.n++
	fmt.Fprintf(s.h, "%s>%v r=%v ", s.LocalAddr(), addrs, reliable)
	s.h.Write(binary.AppendUvarint(nil, uint64(len(payload))))
	s.h.Write(payload)
}

func (s sendLog) SendPacket(to string, payload []byte, reliable bool) error {
	s.note([]string{to}, payload, reliable)
	return s.Port.SendPacket(to, payload, reliable)
}

func (s sendLog) SendPacketFanout(addrs []string, payload []byte, reliable bool) error {
	s.note(addrs, payload, reliable)
	return s.Port.SendPacketFanout(addrs, payload, reliable)
}

// eventLog folds every membership event, with its virtual time and
// observer, into a digest.
type eventLog struct {
	h        hash.Hash
	n        *int
	clock    *sim.Clock
	observer string
}

func (e eventLog) note(kind string, m core.Member) {
	*e.n++
	fmt.Fprintf(e.h, "%d %s %s %s %d\n", e.clock.Now().UnixNano(), e.observer, kind, m.Name, m.Incarnation)
}

func (e eventLog) NotifyJoin(m core.Member)    { e.note("join", m) }
func (e eventLog) NotifySuspect(m core.Member) { e.note("suspect", m) }
func (e eventLog) NotifyAlive(m core.Member)   { e.note("alive", m) }
func (e eventLog) NotifyDead(m core.Member)    { e.note("dead", m) }
func (e eventLog) NotifyUpdate(m core.Member)  { e.note("update", m) }

// TestTelemetryDoesNotPerturb holds telemetry's contract: recording
// never draws from a member's RNG, schedules a timer or sends, so a
// seeded run with a NodeRecorder on every member makes exactly the
// sends and membership events of the same run without one. The run
// exercises every hook: direct and indirect acks, timeouts, LHM moves,
// and suspicions that are refuted or end in death.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	type outcome struct {
		sends, events int
		digest        string // sends, then events
	}
	run := func(record bool) (outcome, []*telemetry.NodeRecorder) {
		sends, events := sha256.New(), sha256.New()
		var nSends, nEvents int
		var recs []*telemetry.NodeRecorder
		c := newTestCluster(t, clusterOpts{
			n: 16, seed: 9,
			configure: func(_ int, cfg *core.Config) {
				cfg.Events = eventLog{h: events, n: &nEvents, clock: cfg.Clock.(*sim.Clock), observer: cfg.Name}
				if record {
					rec, err := telemetry.NewNodeRecorder(telemetry.NodeConfig{})
					if err != nil {
						t.Fatal(err)
					}
					recs = append(recs, rec)
					cfg.Telemetry = rec
				}
			},
			transport: func(p *sim.Port) core.Transport { return sendLog{Port: p, h: sends, n: &nSends} },
		})
		defer c.shutdown()
		c.start()
		c.run(10 * time.Second)
		// Two members stall for 6 s, long enough to be suspected and to
		// refute on resume; a third crashes for good.
		c.net.Pause("node-003", sim.PauseBuffer)
		c.net.Pause("node-007", sim.PauseBuffer)
		c.run(6 * time.Second)
		c.net.Resume("node-003")
		c.net.Resume("node-007")
		c.net.Crash("node-011")
		c.run(40 * time.Second)
		return outcome{sends: nSends, events: nEvents, digest: fmt.Sprintf("%x %x", sends.Sum(nil), events.Sum(nil))}, recs
	}
	bare, _ := run(false)
	recorded, recs := run(true)
	if bare != recorded {
		t.Fatalf("telemetry perturbed the run:\n without: %+v\n    with: %+v", bare, recorded)
	}

	// The recorders saw every kind of observation, so the equality
	// above covers every hook.
	var rtts, direct, indirect, timeouts, suspicions, deaths, lhmMoves uint64
	for _, r := range recs {
		s := r.Snapshot()
		rtts += s.RTT.Count
		lhmMoves += s.LHMChanges
		for _, p := range s.Peers {
			direct += p.DirectAcks
			indirect += p.IndirectAcks
			timeouts += p.Timeouts
			suspicions += p.Suspicions
			deaths += p.Deaths
		}
	}
	t.Logf("%d sends, %d events; recorded %d RTTs, %d/%d/%d direct/indirect/timeout rounds, %d suspicions (%d died), %d LHM moves",
		bare.sends, bare.events, rtts, direct, indirect, timeouts, suspicions, deaths, lhmMoves)
	for what, n := range map[string]uint64{
		"RTT": rtts, "direct ack": direct, "timeout": timeouts,
		"suspicion": suspicions, "death": deaths, "LHM move": lhmMoves,
	} {
		if n == 0 {
			t.Errorf("no %s recorded: the run does not exercise that hook", what)
		}
	}
	if suspicions <= deaths {
		t.Errorf("%d suspicions, %d deaths: no suspicion was refuted", suspicions, deaths)
	}
}
