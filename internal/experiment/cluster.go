// Package experiment implements the paper's evaluation harness (§V): a
// simulated cluster of protocol nodes with anomaly injection, the
// Threshold and Interval experiments, the Figure-1 CPU-exhaustion
// scenario, and the parameter sweeps behind every table and figure.
package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"lifeguard/internal/core"
	"lifeguard/internal/metrics"
	"lifeguard/internal/sim"
	"lifeguard/internal/telemetry"
)

// ProtocolConfig selects a row of the paper's Table I plus the tunable
// suspicion parameters of §V-C.
type ProtocolConfig struct {
	// Name labels the configuration in reports ("SWIM", "Lifeguard", …).
	Name string

	// LHAProbe, LHASuspicion and BuddySystem enable the respective
	// Lifeguard components.
	LHAProbe     bool
	LHASuspicion bool
	BuddySystem  bool

	// Alpha and Beta tune the suspicion timeout (§V-C). The SWIM
	// baseline is α = 5, β = 1 (fixed timeout).
	Alpha, Beta float64
}

// The five configurations of Table I. Lifeguard rows default to the
// paper's headline tuning α = 5, β = 6.
var (
	ConfigSWIM         = ProtocolConfig{Name: "SWIM", Alpha: 5, Beta: 1}
	ConfigLHAProbe     = ProtocolConfig{Name: "LHA-Probe", LHAProbe: true, Alpha: 5, Beta: 1}
	ConfigLHASuspicion = ProtocolConfig{Name: "LHA-Suspicion", LHASuspicion: true, Alpha: 5, Beta: 6}
	ConfigBuddy        = ProtocolConfig{Name: "Buddy System", BuddySystem: true, Alpha: 5, Beta: 1}
	ConfigLifeguard    = ProtocolConfig{Name: "Lifeguard", LHAProbe: true, LHASuspicion: true, BuddySystem: true, Alpha: 5, Beta: 6}
)

// Configurations lists Table I in the paper's order.
var Configurations = []ProtocolConfig{
	ConfigSWIM,
	ConfigLHAProbe,
	ConfigLHASuspicion,
	ConfigBuddy,
	ConfigLifeguard,
}

// WithTuning returns a copy of p with the given suspicion tuning.
func (p ProtocolConfig) WithTuning(alpha, beta float64) ProtocolConfig {
	p.Alpha, p.Beta = alpha, beta
	p.Name = fmt.Sprintf("%s(α=%g,β=%g)", p.Name, alpha, beta)
	return p
}

// apply copies the protocol selection onto a node config.
func (p ProtocolConfig) apply(cfg *core.Config) {
	cfg.LHAProbe = p.LHAProbe
	cfg.LHASuspicion = p.LHASuspicion
	cfg.BuddySystem = p.BuddySystem
	cfg.SuspicionAlpha = p.Alpha
	beta := p.Beta
	if beta < 1 {
		beta = 1
	}
	cfg.SuspicionBeta = beta
}

// ClusterConfig sizes and seeds a simulated cluster.
type ClusterConfig struct {
	// N is the number of members (128 in the paper's §V experiments,
	// 100 in Figure 1).
	N int

	// Seed makes the run deterministic: it seeds the network and every
	// node's RNG.
	Seed int64

	// Protocol selects the Lifeguard components and suspicion tuning.
	Protocol ProtocolConfig

	// Net overrides simulator options (topology, loss, queue capacity,
	// service time). Zero values take the simulator defaults.
	Net sim.Options

	// SuspicionK overrides LHA-Suspicion's re-gossip factor K for
	// ablation studies. Zero keeps the paper's default (3).
	SuspicionK int

	// MaxLHM overrides the Local Health Multiplier saturation limit S
	// for ablation studies. Zero keeps the paper's default (8).
	MaxLHM int

	// TopologyAware enables the coordinate-driven protocol extensions
	// on every member: RTT-adaptive probe timeouts with early round
	// close, coordinate-aware indirect-probe relay selection, and
	// latency-biased gossip with a cross-cluster escape fraction. The
	// WAN comparison experiment flips this between its two runs.
	TopologyAware bool

	// Telemetry attaches a telemetry recorder to every member:
	// origin-attributed direct-ack RTT samples flow into Cluster.Telem,
	// which the WAN scenario scores against the simulator's ground-truth
	// RTTs. Recording never draws from a node's RNG or schedules clock
	// events, so enabling it leaves the simulation's event ordering — and
	// its same-seed records — unchanged.
	Telemetry bool

	// played, when set, is handed every script run the cluster starts,
	// so a test can read the departures a scenario's script derived.
	played func(*run)
}

// Cluster is a simulated group of protocol nodes with anomaly gates.
type Cluster struct {
	Sched *sim.Scheduler
	Net   *sim.Network
	Nodes []*core.Node

	// Events collects membership events from every member, the raw
	// material for the paper's false-positive and latency metrics.
	Events *metrics.EventLog

	// Sink aggregates protocol counters across every member (probe
	// rounds, adaptive-timeout usage, relay and gossip pick counts,
	// coordinate updates, …), cluster-wide.
	Sink *metrics.MemSink

	// Telem holds every member's direct-path RTT samples, all of them,
	// in the order recorded, per (origin, peer); nil unless
	// ClusterConfig.Telemetry was set.
	Telem map[RTTPair][]time.Duration

	cc      ClusterConfig
	names   map[string]*core.Node
	started time.Time

	// addSeq counts addNode calls for RNG-seed derivation. Unlike
	// len(Nodes) it never decreases, so a member added after a
	// RemoveNode cannot collide with a live member's RNG stream.
	addSeq int64
}

// eventRecorder logs one node's membership events with observer
// attribution.
type eventRecorder struct {
	log      *metrics.EventLog
	clock    interface{ Now() time.Time }
	observer string
}

func (r eventRecorder) record(t metrics.EventType, m core.Member) {
	r.log.Append(metrics.Event{
		Time:        r.clock.Now(),
		Observer:    r.observer,
		Subject:     m.Name,
		Type:        t,
		Incarnation: m.Incarnation,
	})
}

func (r eventRecorder) NotifyJoin(m core.Member)    { r.record(metrics.EventJoin, m) }
func (r eventRecorder) NotifySuspect(m core.Member) { r.record(metrics.EventSuspect, m) }
func (r eventRecorder) NotifyAlive(m core.Member)   { r.record(metrics.EventAlive, m) }
func (r eventRecorder) NotifyDead(m core.Member)    { r.record(metrics.EventDead, m) }
func (r eventRecorder) NotifyUpdate(m core.Member)  {}

// RTTPair keys one RTT sample stream in Cluster.Telem: Origin measured
// the round-trip to Peer.
type RTTPair struct {
	Origin, Peer string
}

// rttRecorder is one member's telemetry.Recorder: RTT samples are
// appended to the cluster's list for (member, peer); the other hooks
// are accepted and discarded (experiments score those through Events
// and Sink). A cluster's members all run on its scheduler's goroutine,
// so the lists need no lock, and a finite run needs no bound.
type rttRecorder struct {
	samples map[RTTPair][]time.Duration
	origin  string
}

func (r rttRecorder) RecordRTT(peer string, rtt time.Duration) {
	k := RTTPair{Origin: r.origin, Peer: peer}
	r.samples[k] = append(r.samples[k], rtt)
}
func (rttRecorder) RecordProbe(string, telemetry.ProbeOutcome)  {}
func (rttRecorder) RecordLHM(int)                               {}
func (rttRecorder) RecordSuspicion(string, time.Duration, bool) {}

// NodeName returns the canonical member name for index i.
func NodeName(i int) string { return fmt.Sprintf("node-%03d", i) }

// NewCluster builds a cluster; call Start to boot it.
func NewCluster(cc ClusterConfig) (*Cluster, error) {
	if cc.N < 2 {
		return nil, fmt.Errorf("experiment: cluster needs at least 2 members, got %d", cc.N)
	}
	sched := sim.NewScheduler(time.Unix(0, 0))
	netOpts := cc.Net
	netOpts.Seed = cc.Seed
	network := sim.NewNetwork(sched, netOpts)

	c := &Cluster{
		Sched:  sched,
		Net:    network,
		Events: metrics.NewEventLog(),
		Sink:   metrics.NewMemSink(),
		cc:     cc,
		names:  make(map[string]*core.Node, cc.N),
	}
	if cc.Telemetry {
		c.Telem = make(map[RTTPair][]time.Duration)
	}

	for i, rng := range seedRNGs(cc.Seed*7919+1, cc.N) {
		if _, err := c.addNode(NodeName(i), rng); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// seedRNGs returns n RNGs seeded base, base+1, …, base+n-1, seeded on
// every CPU: filling a math/rand source's 607-word state is most of what
// building a member costs, and each source depends on its seed alone.
func seedRNGs(base int64, n int) []*rand.Rand {
	rngs := make([]*rand.Rand, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				rngs[i] = rand.New(rand.NewSource(base + int64(i)))
			}
		}()
	}
	wg.Wait()
	return rngs
}

// addNode builds one protocol node, attaches it to the network, and
// registers it with the cluster. The RNG seed derives from the node's
// position in the join order, so runs stay deterministic even when
// members are added mid-experiment (churn scenarios); rng, when not nil,
// is that RNG already seeded (NewCluster seeds its members' at once).
func (c *Cluster) addNode(name string, rng *rand.Rand) (*core.Node, error) {
	cfg := core.DefaultConfig(name)
	c.cc.Protocol.apply(cfg)
	if c.cc.SuspicionK > 0 {
		cfg.SuspicionK = c.cc.SuspicionK
	}
	if c.cc.MaxLHM > 0 {
		cfg.MaxLHM = c.cc.MaxLHM
	}
	cfg.TopologyAware = c.cc.TopologyAware
	// The per-member clock lets a script degrade this member's timers;
	// with no degradation installed it is identical to the shared
	// network clock.
	cfg.Clock = c.Net.NodeClock(name)
	c.addSeq++
	if rng == nil {
		rng = rand.New(rand.NewSource(c.cc.Seed*7919 + c.addSeq))
	}
	cfg.RNG = rng
	cfg.Events = eventRecorder{log: c.Events, clock: c.Net.Clock(), observer: name}
	cfg.Metrics = c.Sink
	if c.Telem != nil {
		cfg.Telemetry = rttRecorder{samples: c.Telem, origin: name}
	}

	var node *core.Node
	port, err := c.Net.Attach(name, func(from string, payload []byte) {
		node.HandlePacket(from, payload)
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: attach %s: %w", name, err)
	}
	cfg.Transport = port
	gate := name
	net := c.Net
	cfg.Blocked = func() bool { return net.Gated(gate) }

	node, err = core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: new node %s: %w", name, err)
	}
	c.Net.OnWake(name, node.Wake)
	c.Nodes = append(c.Nodes, node)
	c.names[name] = node
	return node, nil
}

// Start boots every member, joins them through member 0, and runs the
// quiesce period (15 s in the paper).
//
// Joins are staggered across a short bootstrap window scaled to the
// cluster size: a simultaneous join storm at thousands of members
// overflows the seed member's inbound queue (QueueCap tail-drop) and
// leaves the dropped joiners permanently isolated — they know no peer to
// retry through. Real clusters bootstrap over seconds, not an instant.
// At the paper's double-digit-to-128 sizes the window is sub-second, so
// the §V experiments are unaffected.
func (c *Cluster) Start(quiesce time.Duration) error {
	c.started = c.Sched.Now()
	for _, n := range c.Nodes {
		if err := n.Start(); err != nil {
			return fmt.Errorf("experiment: start %s: %w", n.Name(), err)
		}
	}
	seed := c.Nodes[0].Addr()
	window := bootstrapWindow(len(c.Nodes))
	for i, n := range c.Nodes[1:] {
		node := n
		offset := window * time.Duration(i) / time.Duration(len(c.Nodes)-1)
		if offset <= 0 {
			if err := node.Join(seed); err != nil {
				return fmt.Errorf("experiment: join %s: %w", node.Name(), err)
			}
			continue
		}
		c.Sched.ScheduleAt(c.started.Add(offset), func() { _ = node.Join(seed) })
	}
	c.Sched.RunFor(quiesce)
	return nil
}

// bootstrapWindow is the join-stagger span for an n-member cluster: 5 ms
// per member, capped at 10 s. Sub-second at the paper's sizes; long
// enough at thousands of members to keep the seed's inbound queue from
// overflowing.
func bootstrapWindow(n int) time.Duration {
	w := time.Duration(n) * 5 * time.Millisecond
	if w > 10*time.Second {
		w = 10 * time.Second
	}
	return w
}

// RemoveNode shuts the named member down, detaches it from the network
// and forgets it, so a fresh member can later be added under the same
// name (a script's stop entry; rolling-restart then rejoins the name).
// Removing an unknown name is a no-op.
func (c *Cluster) RemoveNode(name string) {
	node, ok := c.names[name]
	if !ok {
		return
	}
	node.Shutdown()
	c.Net.Detach(name)
	delete(c.names, name)
	for i, n := range c.Nodes {
		if n == node {
			c.Nodes = append(c.Nodes[:i], c.Nodes[i+1:]...)
			break
		}
	}
}

// Shutdown stops every member.
func (c *Cluster) Shutdown() {
	for _, n := range c.Nodes {
		n.Shutdown()
	}
}

// Converged reports whether every member sees every member alive.
func (c *Cluster) Converged() bool {
	for _, n := range c.Nodes {
		alive := 0
		for _, m := range n.Members() {
			if m.State == core.StateAlive {
				alive++
			}
		}
		if alive != len(c.Nodes) {
			return false
		}
	}
	return true
}

// Elapsed returns virtual time since Start.
func (c *Cluster) Elapsed() time.Duration {
	return c.Sched.Now().Sub(c.started)
}
