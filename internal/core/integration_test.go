package core_test

// Integration tests: full protocol nodes on the discrete-event
// simulator. These exercise convergence, true failure detection,
// refutation, recovery and the Lifeguard components end to end in
// virtual time.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lifeguard/internal/core"
	"lifeguard/internal/sim"
)

// testCluster wires N nodes to a simulated network.
type testCluster struct {
	t     *testing.T
	sched *sim.Scheduler
	net   *sim.Network
	nodes []*core.Node
}

type clusterOpts struct {
	n    int
	seed int64
	// loss, when positive, is every member link's unreliable-packet
	// loss probability (a sim.LinkFault on each directed pair).
	loss      float64
	configure func(i int, cfg *core.Config)
	// transport, when set, wraps each member's port.
	transport func(p *sim.Port) core.Transport
}

func newTestCluster(t *testing.T, opts clusterOpts) *testCluster {
	t.Helper()
	sched := sim.NewScheduler(time.Unix(0, 0))
	network := sim.NewNetwork(sched, sim.Options{Seed: opts.seed})

	c := &testCluster{t: t, sched: sched, net: network}
	for i := 0; i < opts.n; i++ {
		name := fmt.Sprintf("node-%03d", i)
		cfg := core.DefaultConfig(name)
		cfg.Clock = network.Clock()
		cfg.RNG = rand.New(rand.NewSource(opts.seed + int64(i) + 1))
		if opts.configure != nil {
			opts.configure(i, cfg)
		}
		var node *core.Node
		port, err := network.Attach(name, func(from string, payload []byte) {
			node.HandlePacket(from, payload)
		})
		if err != nil {
			t.Fatalf("attach %s: %v", name, err)
		}
		cfg.Transport = port
		if opts.transport != nil {
			cfg.Transport = opts.transport(port)
		}
		gateName := name
		cfg.Blocked = func() bool { return network.Gated(gateName) }
		node, err = core.New(cfg)
		if err != nil {
			t.Fatalf("new %s: %v", name, err)
		}
		network.OnWake(name, node.Wake)
		c.nodes = append(c.nodes, node)
	}
	if opts.loss > 0 {
		for _, a := range c.nodes {
			for _, b := range c.nodes {
				if a != b {
					network.SetLinkFault(a.Name(), b.Name(), sim.LinkFault{Loss: opts.loss})
				}
			}
		}
	}
	return c
}

// start boots every node and joins them through node 0.
func (c *testCluster) start() {
	for _, n := range c.nodes {
		if err := n.Start(); err != nil {
			c.t.Fatalf("start %s: %v", n.Name(), err)
		}
	}
	seed := c.nodes[0].Addr()
	for _, n := range c.nodes[1:] {
		if err := n.Join(seed); err != nil {
			c.t.Fatalf("join %s: %v", n.Name(), err)
		}
	}
}

func (c *testCluster) run(d time.Duration) { c.sched.RunFor(d) }

// converged reports whether every node sees every node alive.
func (c *testCluster) converged() bool {
	for _, n := range c.nodes {
		alive := 0
		for _, m := range n.Members() {
			if m.State == core.StateAlive {
				alive++
			}
		}
		if alive != len(c.nodes) {
			return false
		}
	}
	return true
}

func (c *testCluster) shutdown() {
	for _, n := range c.nodes {
		n.Shutdown()
	}
}

func TestClusterConvergence(t *testing.T) {
	c := newTestCluster(t, clusterOpts{n: 16, seed: 1})
	defer c.shutdown()
	c.start()
	c.run(15 * time.Second)
	if !c.converged() {
		for _, n := range c.nodes {
			t.Logf("%s: alive=%d members=%d", n.Name(), n.NumAlive(), len(n.Members()))
		}
		t.Fatal("cluster did not converge within 15s")
	}
}

func TestTrueFailureDetected(t *testing.T) {
	c := newTestCluster(t, clusterOpts{n: 16, seed: 2})
	defer c.shutdown()
	c.start()
	c.run(15 * time.Second)
	if !c.converged() {
		t.Fatal("no convergence")
	}

	// Kill node 5 outright: no anomaly, a real crash.
	victim := c.nodes[5]
	victim.Shutdown()
	c.net.Detach(victim.Name())

	// Suspicion min for n=16 at α=5 is 5·log10(16)·1s ≈ 6.0s; with β=6
	// the timeout starts near 36s but confirmations from a healthy
	// cluster should drive it down. Allow a generous horizon.
	c.run(60 * time.Second)

	for _, n := range c.nodes {
		if n == victim {
			continue
		}
		m, ok := n.Member(victim.Name())
		if !ok || m.State != core.StateDead {
			t.Fatalf("%s still sees %s as %v", n.Name(), victim.Name(), m.State)
		}
	}
}

func TestSuspicionRefutedForHealthyMember(t *testing.T) {
	// Block a member briefly so it gets suspected, then release it; it
	// must refute and return to alive everywhere without ever being
	// declared dead.
	deadEvents := 0
	c := newTestCluster(t, clusterOpts{
		n:    16,
		seed: 3,
		configure: func(i int, cfg *core.Config) {
			cfg.Events = deadCounter{&deadEvents}
		},
	})
	defer c.shutdown()
	c.start()
	c.run(15 * time.Second)

	c.net.SetGated("node-007", true)
	c.run(4 * time.Second) // long enough to fail probes, short of any timeout
	c.net.SetGated("node-007", false)
	c.run(30 * time.Second)

	if deadEvents != 0 {
		t.Fatalf("healthy member was declared dead %d times", deadEvents)
	}
	if !c.converged() {
		t.Fatal("cluster did not re-converge after anomaly")
	}
}

type deadCounter struct{ n *int }

func (d deadCounter) NotifyJoin(core.Member)    {}
func (d deadCounter) NotifySuspect(core.Member) {}
func (d deadCounter) NotifyAlive(core.Member)   {}
func (d deadCounter) NotifyDead(core.Member)    { *d.n++ }
func (d deadCounter) NotifyUpdate(core.Member)  {}

func TestRecoveryAfterFalseDeath(t *testing.T) {
	// Under SWIM (no Lifeguard), a long enough block gets a member
	// declared dead; on release it must refute and rejoin everywhere.
	c := newTestCluster(t, clusterOpts{
		n:    16,
		seed: 4,
		configure: func(i int, cfg *core.Config) {
			swim := core.SWIMConfig(cfg.Name)
			swim.Clock, swim.RNG = cfg.Clock, cfg.RNG
			*cfg = *swim
		},
	})
	defer c.shutdown()
	c.start()
	c.run(15 * time.Second)
	if !c.converged() {
		t.Fatal("no convergence")
	}

	victim := "node-003"
	c.net.SetGated(victim, true)
	c.run(30 * time.Second) // past the fixed ~6s suspicion timeout

	declared := 0
	for _, n := range c.nodes {
		if n.Name() == victim {
			continue
		}
		if m, ok := n.Member(victim); ok && m.State == core.StateDead {
			declared++
		}
	}
	if declared == 0 {
		t.Fatal("blocked member was never declared dead under SWIM")
	}

	c.net.SetGated(victim, false)
	c.run(60 * time.Second)
	if !c.converged() {
		for _, n := range c.nodes {
			m, _ := n.Member(victim)
			t.Logf("%s sees %s as %v inc=%d", n.Name(), victim, m.State, m.Incarnation)
		}
		t.Fatal("cluster did not re-converge after release")
	}
}

func TestClusterToleratesPacketLoss(t *testing.T) {
	// 10% uniform loss: the cluster must still converge and hold steady
	// without false positives (gossip redundancy is the point of SWIM).
	deadEvents := 0
	c := newTestCluster(t, clusterOpts{
		n:    16,
		seed: 31,
		loss: 0.10,
		configure: func(i int, cfg *core.Config) {
			cfg.Events = deadCounter{&deadEvents}
		},
	})
	defer c.shutdown()
	c.start()
	c.run(30 * time.Second)
	if !c.converged() {
		t.Fatal("no convergence under 10% loss")
	}
	c.run(60 * time.Second)
	if deadEvents != 0 {
		t.Errorf("%d false failure events under 10%% loss", deadEvents)
	}
	if c.net.TotalStats().DropsFault == 0 {
		t.Error("no packet was lost")
	}
}

func TestClusterSurvivesHeavyLoss(t *testing.T) {
	// 40% loss: convergence may stutter but the group must not melt
	// down into mass false positives.
	deadEvents := 0
	c := newTestCluster(t, clusterOpts{
		n:    12,
		seed: 33,
		loss: 0.40,
		configure: func(i int, cfg *core.Config) {
			cfg.Events = deadCounter{&deadEvents}
		},
	})
	defer c.shutdown()
	c.start()
	c.run(2 * time.Minute)
	if deadEvents > 12 {
		t.Errorf("%d failure events under 40%% loss (mass false positives)", deadEvents)
	}
	if c.net.TotalStats().DropsFault == 0 {
		t.Error("no packet was lost")
	}
}

func TestLHMRisesUnderAnomaly(t *testing.T) {
	c := newTestCluster(t, clusterOpts{n: 8, seed: 5})
	defer c.shutdown()
	c.start()
	c.run(15 * time.Second)

	target := c.nodes[2]
	if got := target.HealthScore(); got != 0 {
		t.Fatalf("healthy member has LHM %d, want 0", got)
	}

	// Isolate node 2's outbound+inbound links so its probes fail while
	// it keeps running (network trouble, not process block).
	for _, n := range c.nodes {
		if n == target {
			continue
		}
		c.net.FailLink(target.Name(), n.Name(), true)
		c.net.FailLink(n.Name(), target.Name(), true)
	}
	c.run(10 * time.Second)

	if got := target.HealthScore(); got < 3 {
		t.Fatalf("isolated member has LHM %d, want >= 3", got)
	}
}
