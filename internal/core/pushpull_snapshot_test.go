package core

import (
	"encoding/hex"
	"errors"
	"sort"
	"sync"
	"testing"

	"lifeguard/internal/wire"
)

// snapshotMatchesTable asserts localStatesLocked equals the members map
// sorted by name — the exact contract the old allocate-and-sort
// implementation provided per exchange and the incremental roster must
// preserve through every membership mutation.
func snapshotMatchesTable(t *testing.T, n *Node) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()

	want := make([]wire.PushPullState, 0, len(n.members))
	for _, m := range n.members {
		want = append(want, wire.PushPullState{
			Name:        m.Name,
			Addr:        m.Addr,
			Incarnation: m.Incarnation,
			State:       uint8(m.State),
		})
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Name < want[j].Name })

	got := n.localStatesLocked()
	defer putStates(got)
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d states, members table has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Incarnation != want[i].Incarnation ||
			got[i].State != want[i].State || got[i].Addr != want[i].Addr {
			t.Fatalf("snapshot[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestPushPullSnapshotTracksMembership drives the node through join,
// death and refutation, checking after each step that the incrementally
// sorted snapshot still equals the sorted members table.
func TestPushPullSnapshotTracksMembership(t *testing.T) {
	h := newHarness(t, nil)
	snapshotMatchesTable(t, h.node)

	// Joins arrive in name-unsorted order; the roster must file them.
	for _, name := range []string{"delta", "alpha", "zed", "mike"} {
		h.addMember(name, 1)
		snapshotMatchesTable(t, h.node)
	}

	// Death and refutation mutate state in place — set membership is
	// unchanged, and the snapshot reflects the new state fields.
	h.inject("zed", &wire.Dead{Incarnation: 1, Node: "mike", From: "zed"})
	snapshotMatchesTable(t, h.node)
	if h.state("mike").State != StateDead {
		t.Fatal("mike not marked dead")
	}
	h.inject("mike", &wire.Alive{Incarnation: 2, Node: "mike", Addr: "mike"})
	snapshotMatchesTable(t, h.node)
}

// TestPushPullSnapshotAllocs pins the snapshot path at zero steady-state
// allocations: the sorted roster is maintained incrementally and the
// state table comes from the process-wide pool, so an exchange allocates
// nothing once a pooled table has grown to the table size.
func TestPushPullSnapshotAllocs(t *testing.T) {
	var b testing.B
	n := newBenchNode(&b, 200)
	if b.Failed() {
		t.Fatal("bench node setup failed")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	putStates(n.localStatesLocked()) // grow a pooled table once
	allocs := testing.AllocsPerRun(100, func() {
		got := n.localStatesLocked()
		if len(got) != 201 {
			t.Fatalf("snapshot has %d states, want 201", len(got))
		}
		putStates(got)
	})
	if allocs > 0 {
		t.Fatalf("push-pull snapshot allocates %.1f per exchange, want 0", allocs)
	}
}

// emptyStatesPool drops every pooled table, so a test can count the
// tables its own exchanges put back.
func emptyStatesPool() {
	statesPool.Lock()
	statesPool.free = nil
	statesPool.Unlock()
}

// pooledTables returns the number of tables in the pool and fails the
// test if any slot of any of them, up to its capacity, is not zero.
func pooledTables(t *testing.T, step string) int {
	t.Helper()
	statesPool.Lock()
	defer statesPool.Unlock()
	for _, table := range statesPool.free {
		for i, s := range table[:cap(table)] {
			if s != (wire.PushPullState{}) {
				t.Fatalf("%s: pooled slot %d still holds %+v", step, i, s)
			}
		}
	}
	return len(statesPool.free)
}

// TestPushPullTablesReturnToPool drives every path that takes a snapshot
// table — Join, a push-pull tick, the reply to a peer's request, a
// reconnect tick and a Join whose send fails — and checks after each one
// that the single table these exchanges share is back in the pool with
// every slot zero: the node holds no table, and the pool holds no member
// name.
func TestPushPullTablesReturnToPool(t *testing.T) {
	emptyStatesPool()
	h := newHarness(t, nil)
	h.addMember("alpha", 1)
	h.addMember("bravo", 1)
	h.addMember("charlie", 1)
	h.inject("alpha", &wire.Dead{Incarnation: 1, Node: "charlie", From: "alpha"})
	h.clearSent()

	pooled := func(step string, typ wire.MsgType) {
		t.Helper()
		if got := len(h.sentOfType(typ)); got != 1 {
			t.Fatalf("%s: sent %d messages of type %d, want 1", step, got, typ)
		}
		h.clearSent()
		if got := pooledTables(t, step); got != 1 {
			t.Fatalf("%s: %d tables pooled, want the one every exchange shares", step, got)
		}
	}

	if err := h.node.Join("seed"); err != nil {
		t.Fatal(err)
	}
	pooled("join", wire.TypePushPullReq)

	h.node.pushPullTick()
	pooled("push-pull tick", wire.TypePushPullReq)

	h.inject("delta", &wire.PushPullReq{Source: "delta", States: []wire.PushPullState{
		{Name: "delta", Addr: "delta", Incarnation: 1, State: uint8(StateAlive)},
	}})
	pooled("reply", wire.TypePushPullResp)

	h.node.reconnectTick()
	pooled("reconnect tick", wire.TypePushPullReq)

	h.sendErr = errors.New("connection refused")
	if err := h.node.Join("seed"); !errors.Is(err, h.sendErr) {
		t.Fatalf("join over a failing transport returned %v, want %v", err, h.sendErr)
	}
	pooled("failed send", wire.TypePushPullReq)
}

// TestPushPullPoolConcurrentNodes runs push-pull exchanges on several
// nodes at once, as an agent process hosting many members does: the
// pool is the one piece of scratch they share. Under -race this is the
// pool's race check; in any build the pool ends with at most one table
// per exchanger, every one cleared.
func TestPushPullPoolConcurrentNodes(t *testing.T) {
	const nodes, joins = 8, 200
	emptyStatesPool()
	var b testing.B
	ns := make([]*Node, nodes)
	for i := range ns {
		ns[i] = newBenchNode(&b, 50)
	}
	if b.Failed() {
		t.Fatal("bench node setup failed")
	}
	var wg sync.WaitGroup
	for _, n := range ns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < joins; i++ {
				if err := n.Join("seed"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := pooledTables(t, "after concurrent joins"); got < 1 || got > nodes {
		t.Fatalf("%d tables pooled after %d concurrent exchangers, want 1 to %d", got, nodes, nodes)
	}
}

// TestPushPullWireGolden pins the bytes of one fixed-table exchange: a
// Join's request, then the response to a peer's request, over a table
// holding self and members alive, suspect and dead.
func TestPushPullWireGolden(t *testing.T) {
	const (
		wantReq  = "080473656c66010405616c7068610d31302e302e302e313a3739343603010005627261766f0d31302e302e302e323a3739343601020007636861726c69650d31302e302e302e333a373934360103000473656c660473656c66010100"
		wantResp = "090473656c660505616c7068610d31302e302e302e313a3739343603010005627261766f0d31302e302e302e323a3739343601020007636861726c69650d31302e302e302e333a373934360103000564656c74610d31302e302e302e343a373934360201000473656c660473656c66010100"
	)
	h := newHarness(t, nil)
	h.inject("alpha", &wire.Alive{Incarnation: 3, Node: "alpha", Addr: "10.0.0.1:7946"})
	h.inject("bravo", &wire.Alive{Incarnation: 1, Node: "bravo", Addr: "10.0.0.2:7946"})
	h.inject("charlie", &wire.Alive{Incarnation: 1, Node: "charlie", Addr: "10.0.0.3:7946"})
	h.inject("alpha", &wire.Suspect{Incarnation: 1, Node: "bravo", From: "alpha"})
	h.inject("alpha", &wire.Dead{Incarnation: 1, Node: "charlie", From: "alpha"})
	h.clearSent()

	if err := h.node.Join("seed"); err != nil {
		t.Fatal(err)
	}
	h.inject("delta", &wire.PushPullReq{Source: "delta", States: []wire.PushPullState{
		{Name: "delta", Addr: "10.0.0.4:7946", Incarnation: 2, State: uint8(StateAlive)},
	}})
	if len(h.sent) != 2 {
		t.Fatalf("sent %d packets, want the request and the response", len(h.sent))
	}
	for i, want := range []string{wantReq, wantResp} {
		if got := hex.EncodeToString(h.sent[i].payload); got != want {
			t.Errorf("packet %d = %s, want %s", i, got, want)
		}
	}
}
