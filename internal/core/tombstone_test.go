package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"lifeguard/internal/sim"
	"lifeguard/internal/wire"
)

// These tests pin the member table's one way in (alive news) and one way
// out (the push-pull walk drops tombstones older than tombstoneTTL), and
// audit the table's three indexes after reaps.

// auditIndexes checks a node's member indexes against each other:
// members, roster and sortedMembers hold the same records,
// sortedMembers in strictly ascending name order; probeList holds
// exactly the non-self members that are alive or suspect, each at its
// own probeSlot, and the probe index stays within it (the probe tick
// takes its next slot without checking the record); and self is in
// the table.
func auditIndexes(t *testing.T, n *Node) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	name := n.cfg.Name
	if len(n.roster) != len(n.members) || len(n.sortedMembers) != len(n.members) {
		t.Fatalf("%s: members %d, roster %d, sortedMembers %d", name, len(n.members), len(n.roster), len(n.sortedMembers))
	}
	for i, m := range n.sortedMembers {
		if n.members[m.Name] != m {
			t.Fatalf("%s: sortedMembers[%d] %q is not the table's record", name, i, m.Name)
		}
		if i > 0 && n.sortedMembers[i-1].Name >= m.Name {
			t.Fatalf("%s: sortedMembers[%d..%d] = %q, %q: not strictly ascending", name, i-1, i, n.sortedMembers[i-1].Name, m.Name)
		}
	}
	seen := make(map[*memberState]bool, len(n.roster))
	for i, m := range n.roster {
		if n.members[m.Name] != m || seen[m] {
			t.Fatalf("%s: roster[%d] %q is not a distinct record of the table", name, i, m.Name)
		}
		seen[m] = true
	}
	for i, m := range n.probeList {
		if m.probeSlot != i || n.members[m.Name] != m {
			t.Fatalf("%s: probeList[%d] %q has slot %d or is not in the table", name, i, m.Name, m.probeSlot)
		}
	}
	for _, m := range n.members {
		if m.probeSlot >= 0 && (m.probeSlot >= len(n.probeList) || n.probeList[m.probeSlot] != m) {
			t.Fatalf("%s: %q's probeSlot %d does not index it", name, m.Name, m.probeSlot)
		}
		want := m != n.self && (m.State == StateAlive || m.State == StateSuspect)
		if got := m.probeSlot >= 0; got != want {
			t.Fatalf("%s: %q (%v) in the probe list %t, want %t", name, m.Name, m.State, got, want)
		}
	}
	if n.probeIdx > len(n.probeList) {
		t.Fatalf("%s: probe index %d past the %d-member list", name, n.probeIdx, len(n.probeList))
	}
	if n.self == nil || n.members[name] != n.self {
		t.Fatalf("%s: self record missing from the table", name)
	}
}

// TestTombstoneReapedAfterTTL: a dead and a left record stay through
// tombstoneTTL and are gone from the first snapshot after it, self stays
// even when left, and the name can come back only through alive news.
func TestTombstoneReapedAfterTTL(t *testing.T) {
	h := newHarness(t, nil)
	for _, name := range []string{"alpha", "bravo", "charlie"} {
		h.addMember(name, 1)
	}
	h.inject("charlie", &wire.Dead{Incarnation: 1, Node: "alpha", From: "charlie"})
	h.inject("bravo", &wire.Dead{Incarnation: 1, Node: "bravo", From: "bravo"})
	h.node.Leave()

	h.run(tombstoneTTL)
	auditIndexes(t, h.node)
	if got, want := h.state("alpha").State, StateDead; got != want {
		t.Fatalf("alpha = %v at the TTL, want %v", got, want)
	}
	if got, want := h.state("bravo").State, StateLeft; got != want {
		t.Fatalf("bravo = %v at the TTL, want %v", got, want)
	}

	h.run(time.Second)
	h.clearSent()
	if err := h.node.Join("seed"); err != nil {
		t.Fatal(err)
	}
	auditIndexes(t, h.node)
	for _, name := range []string{"alpha", "bravo"} {
		if m, ok := h.node.Member(name); ok {
			t.Errorf("%s kept past the TTL: %+v", name, m)
		}
	}
	if got := h.state("self").State; got != StateLeft {
		t.Errorf("self = %v, want left and kept", got)
	}
	req := h.sentOfType(wire.TypePushPullReq)[0].msg.(*wire.PushPullReq)
	var sent []string
	for _, s := range req.States {
		sent = append(sent, s.Name)
	}
	if want := []string{"charlie", "self"}; !slices.Equal(sent, want) {
		t.Errorf("snapshot sent %v, want %v", sent, want)
	}

	// A remote accusation cannot bring the name back; alive news can.
	h.events = nil
	h.inject("peer", &wire.PushPullResp{Source: "peer", States: []wire.PushPullState{
		{Name: "alpha", Addr: "alpha", Incarnation: 1, State: uint8(StateDead)},
	}})
	if _, ok := h.node.Member("alpha"); ok {
		t.Fatal("a reaped name was relearned from a dead entry")
	}
	h.addMember("alpha", 2)
	if got := h.state("alpha").State; got != StateAlive {
		t.Fatalf("alpha = %v after alive news, want alive", got)
	}
	if want := []string{"join:alpha"}; !slices.Equal(h.events, want) {
		t.Errorf("events = %v, want %v", h.events, want)
	}
	auditIndexes(t, h.node)
}

// simCluster is a small group of started members on one simulated
// network, all joined through the first.
type simCluster struct {
	t       *testing.T
	sched   *sim.Scheduler
	net     *sim.Network
	nodes   map[string]*Node
	seeds   int64
	members []string // live members, in start order
}

func newSimCluster(t *testing.T, names ...string) *simCluster {
	t.Helper()
	sched := sim.NewScheduler(time.Unix(0, 0))
	c := &simCluster{t: t, sched: sched, net: sim.NewNetwork(sched, sim.Options{Seed: 1}), nodes: make(map[string]*Node)}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Shutdown()
		}
	})
	for _, name := range names {
		c.add(name)
	}
	return c
}

// add starts a member under name and joins it through the first member.
func (c *simCluster) add(name string) *Node {
	c.t.Helper()
	c.seeds++
	cfg := DefaultConfig(name)
	cfg.Clock = c.net.Clock()
	cfg.RNG = rand.New(rand.NewSource(c.seeds))
	var node *Node
	port, err := c.net.Attach(name, func(from string, payload []byte) { node.HandlePacket(from, payload) })
	if err != nil {
		c.t.Fatal(err)
	}
	cfg.Transport = port
	if node, err = New(cfg); err != nil {
		c.t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		c.t.Fatal(err)
	}
	if len(c.members) > 0 {
		if err := node.Join(c.nodes[c.members[0]].Addr()); err != nil {
			c.t.Fatal(err)
		}
	}
	c.nodes[name] = node
	c.members = append(c.members, name)
	return node
}

// stop shuts a member down and detaches it, as a crash.
func (c *simCluster) stop(name string) {
	c.nodes[name].Shutdown()
	c.net.Detach(name)
	delete(c.nodes, name)
	c.members = slices.DeleteFunc(c.members, func(m string) bool { return m == name })
}

// converged reports whether every running member sees as many members
// alive as are running.
func (c *simCluster) converged() bool {
	for _, n := range c.nodes {
		alive := 0
		for _, m := range n.Members() {
			if m.State == StateAlive {
				alive++
			}
		}
		if alive != len(c.nodes) {
			return false
		}
	}
	return true
}

// TestNameChurnTableStaysFlat runs a small cluster through hours of
// name churn — every 20 s one member crashes or leaves and a member
// under a fresh name joins — and audits every member's indexes along the
// way. Once the first tombstones have expired, no member's table, roster
// or push-pull payload grows: each holds the live members plus the
// tombstones of the last TTL, not every name the cluster ever had.
func TestNameChurnTableStaysFlat(t *testing.T) {
	const (
		live  = 5
		every = 20 * time.Second
	)
	span := 3 * time.Hour
	if testing.Short() {
		span = time.Hour
	}
	warm := tombstoneTTL + 2*pushPullInterval
	// A tombstone lives from its death (a suspicion timeout after the
	// crash) until the first push-pull walk past the TTL: at most one
	// jittered reconnect or push-pull period later.
	bound := live + int((tombstoneTTL+pushPullInterval*9/8+every)/every) + 2

	names := make([]string, live)
	for i := range names {
		names[i] = fmt.Sprintf("churn-%04d", i)
	}
	c := newSimCluster(t, names...)
	c.sched.RunFor(10 * time.Second)
	rng := rand.New(rand.NewSource(7))

	var firstMax, lastMax, maxRecords int
	var heap runtime.MemStats
	for step, next := 0, live; time.Duration(step)*every < span; step++ {
		// Never the seed: it is the long-lived member every joiner
		// contacts.
		victim := c.members[1+rng.Intn(len(c.members)-1)]
		if step%2 == 0 {
			c.stop(victim)
		} else {
			c.nodes[victim].Leave()
			c.sched.Schedule(2*time.Second, func() { c.stop(victim) })
		}
		c.add(fmt.Sprintf("churn-%04d", next))
		next++
		c.sched.RunFor(every)

		elapsed := time.Duration(step+1) * every
		for _, name := range c.members {
			n := c.nodes[name]
			auditIndexes(t, n)
			if elapsed < warm {
				continue
			}
			records, payload := snapshotSize(n)
			maxRecords = max(maxRecords, records)
			if elapsed < span/2 {
				firstMax = max(firstMax, payload)
			} else {
				lastMax = max(lastMax, payload)
			}
		}
		if elapsed%time.Hour == 0 {
			runtime.GC()
			runtime.ReadMemStats(&heap)
			t.Logf("%v: %d names so far, largest table %d records, heap %.1f MB", elapsed, next, maxRecords, float64(heap.HeapAlloc)/(1<<20))
		}
	}
	if maxRecords > bound {
		t.Errorf("a member held %d records after the first TTL, want ≤ %d (%d live)", maxRecords, bound, live)
	}
	if lastMax > firstMax {
		t.Errorf("push-pull payload grew from %d B in the first half to %d B in the second", firstMax, lastMax)
	}
}

// snapshotSize returns the number of records n holds and the encoded
// size of a push-pull request carrying its snapshot, taken as an
// exchange takes it (so it reaps too).
func snapshotSize(n *Node) (records, payload int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	records = len(n.members)
	states := n.localStatesLocked()
	defer putStates(states)
	p := wire.AcquirePacker()
	defer p.Release()
	return records, p.Add(&wire.PushPullReq{Source: n.cfg.Name, States: states})
}

// TestPartitionWithinTombstoneHorizonRemerges pins the horizon's
// guarantee: a split of tombstoneTTL − 2·reconnectInterval still heals
// on its own. Each side declares the other dead early in the split, so at
// the heal its tombstones have about two reconnect periods to live, and
// reconnect ticks aimed at them re-merge the groups.
func TestPartitionWithinTombstoneHorizonRemerges(t *testing.T) {
	names := []string{"part-0", "part-1", "part-2", "part-3", "part-4", "part-5"}
	c := newSimCluster(t, names...)
	c.sched.RunFor(30 * time.Second)
	if !c.converged() {
		t.Fatal("cluster did not converge before the split")
	}
	a, b := names[:3], names[3:]
	cut := func(failed bool) {
		for _, x := range a {
			for _, y := range b {
				c.net.FailLink(x, y, failed)
				c.net.FailLink(y, x, failed)
			}
		}
	}
	cut(true)
	split := tombstoneTTL - 2*reconnectInterval
	c.sched.RunFor(split)
	if m, ok := c.nodes[a[0]].Member(b[0]); !ok || m.State != StateDead {
		t.Fatalf("%s holds %s as %+v at the heal, want dead", a[0], b[0], m)
	}
	cut(false)
	for waited := time.Duration(0); waited < tombstoneTTL; waited += time.Second {
		c.sched.RunFor(time.Second)
		if c.converged() {
			t.Logf("a %v split re-merged %v after the heal", split, waited+time.Second)
			for _, n := range c.nodes {
				auditIndexes(t, n)
			}
			return
		}
	}
	t.Fatalf("a %v split did not re-merge within %v of the heal", split, tombstoneTTL)
}
