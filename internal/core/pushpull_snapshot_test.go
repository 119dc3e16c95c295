package core

import (
	"sort"
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
			Meta:        m.Meta,
		})
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Name < want[j].Name })

	got := n.localStatesLocked()
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
// state slice is node-owned scratch, so an exchange allocates nothing
// once the scratch has grown to the table size.
func TestPushPullSnapshotAllocs(t *testing.T) {
	var b testing.B
	n := newBenchNode(&b, 200, nil)
	if b.Failed() {
		t.Fatal("bench node setup failed")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.localStatesLocked() // grow the scratch once
	allocs := testing.AllocsPerRun(100, func() {
		if got := n.localStatesLocked(); len(got) != 201 {
			t.Fatalf("snapshot has %d states, want 201", len(got))
		}
	})
	if allocs > 0 {
		t.Fatalf("push-pull snapshot allocates %.1f per exchange, want 0", allocs)
	}
}
