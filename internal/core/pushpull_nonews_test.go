package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"lifeguard/internal/wire"
)

// These tests pin the no-news push-pull path (handleNoNewsPushPull): a
// table equal to the receiver's view is answered without being decoded
// or merged, and that must be indistinguishable from decoding and
// merging it.

// newTwins builds two harness nodes with the same history: nine members
// at assorted incarnations, one of them suspect, one dead and one left.
// setup, if non-nil, continues the history on each twin.
func newTwins(t *testing.T, setup func(*harness)) [2]*harness {
	t.Helper()
	var twins [2]*harness
	for i := range twins {
		h := newHarness(t, nil)
		for j := 1; j <= 9; j++ {
			name := fmt.Sprintf("m%d", j)
			h.inject(name, &wire.Alive{Incarnation: uint64(j), Node: name, Addr: name + ":7946"})
		}
		h.inject("m2", &wire.Suspect{Incarnation: 3, Node: "m3", From: "m2"})
		h.inject("m2", &wire.Dead{Incarnation: 4, Node: "m4", From: "m2"})
		h.inject("m5", &wire.Dead{Incarnation: 5, Node: "m5", From: "m5"})
		if setup != nil {
			setup(h)
		}
		h.clearSent()
		h.events = nil
		twins[i] = h
	}
	return twins
}

// viewStates is n's view as a push-pull table, in sortedMembers order,
// without the tombstone reaping of localStatesLocked.
func viewStates(n *Node) []wire.PushPullState {
	n.mu.Lock()
	defer n.mu.Unlock()
	states := make([]wire.PushPullState, 0, len(n.sortedMembers))
	for _, m := range n.sortedMembers {
		states = append(states, wireState(m))
	}
	return states
}

// twinDump renders everything a delivered packet can change on h: the
// member table and its indexes, the node's own counters, and what it
// sent, emitted and counted.
func twinDump(h *harness) string {
	n := h.node
	var b strings.Builder
	n.mu.Lock()
	for _, m := range n.sortedMembers {
		fmt.Fprintf(&b, "%s %s inc=%d %v since=%v slot=%d suspicion=%v\n",
			m.Name, m.Addr, m.Incarnation, m.State, m.StateChange.UnixNano(), m.probeSlot, m.susp != nil)
	}
	for _, list := range [][]*memberState{n.roster, n.probeList} {
		for _, m := range list {
			b.WriteString(m.Name + " ")
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "members=%d inc=%d lhm=%d alive=%d queued=%d\n",
		len(n.members), n.incarnation, n.lhm, n.aliveCount, n.queue.Len())
	n.mu.Unlock()
	for _, p := range h.sent {
		fmt.Fprintf(&b, "sent to=%s reliable=%v %x\n", p.to, p.reliable, p.payload)
	}
	fmt.Fprintf(&b, "events %v\ncounters %v\n", h.events, h.sink.Snapshot())
	return b.String()
}

// pushPullPacket encodes a push-pull request (join or not) or response
// from source carrying states.
func pushPullPacket(kind wire.MsgType, join bool, source string, states []wire.PushPullState) []byte {
	if kind == wire.TypePushPullResp {
		return wire.Marshal(&wire.PushPullResp{Source: source, States: states})
	}
	return wire.Marshal(&wire.PushPullReq{Source: source, Join: join, States: states})
}

// withMetadata returns the encoding of a table in which entry i carries
// metadata, as the previous release could send it (compat_test.go in
// internal/wire): the entry's empty metadata field, the last byte of
// the encoding of the table cut after that entry, becomes "tags".
func withMetadata(kind wire.MsgType, join bool, source string, states []wire.PushPullState, i int) []byte {
	pkt := pushPullPacket(kind, join, source, states)
	at := len(pushPullPacket(kind, join, source, states[:i+1])) - 1
	return slices.Concat(pkt[:at], []byte{4}, []byte("tags"), pkt[at+1:])
}

type noNewsCase struct {
	name  string
	pkt   []byte
	match bool // the table equals the view
}

// noNewsCases derives, from a twin's view, the matching packets and
// their neighbours for one kind of push-pull message.
func noNewsCases(view []wire.PushPullState, kind wire.MsgType, join bool) []noNewsCase {
	enc := func(states []wire.PushPullState) []byte { return pushPullPacket(kind, join, "m1", states) }
	edited := func(i int, edit func(*wire.PushPullState)) []wire.PushPullState {
		states := slices.Clone(view)
		edit(&states[i])
		return states
	}
	pkt := enc(view)
	cases := []noNewsCase{
		{"unchanged", pkt, true},
		{"source without an entry", pushPullPacket(kind, join, "stranger", view), true},
		{"entry added first", enc(slices.Insert(slices.Clone(view), 0, wire.PushPullState{Name: "a0", Addr: "a0", Incarnation: 1, State: uint8(StateAlive)})), false},
		{"entry added last", enc(append(slices.Clone(view), wire.PushPullState{Name: "zz", Addr: "zz", Incarnation: 1, State: uint8(StateAlive)})), false},
		{"in a compound", wire.EncodePacket([]wire.Message{&wire.Ack{SeqNo: 1, Source: "m1"}, mustDecode(pkt)}), false},
	}
	for i, s := range view {
		cases = append(cases,
			noNewsCase{fmt.Sprintf("%s renamed", s.Name), enc(edited(i, func(s *wire.PushPullState) { s.Name += "x" })), false},
			noNewsCase{fmt.Sprintf("%s readdressed", s.Name), enc(edited(i, func(s *wire.PushPullState) { s.Addr += "x" })), false},
			noNewsCase{fmt.Sprintf("%s one incarnation newer", s.Name), enc(edited(i, func(s *wire.PushPullState) { s.Incarnation++ })), false},
			noNewsCase{fmt.Sprintf("%s one incarnation older", s.Name), enc(edited(i, func(s *wire.PushPullState) { s.Incarnation-- })), false},
			noNewsCase{fmt.Sprintf("%s dropped", s.Name), enc(slices.Delete(slices.Clone(view), i, i+1)), false},
			noNewsCase{fmt.Sprintf("%s with metadata", s.Name), withMetadata(kind, join, "m1", view, i), false},
		)
		for st := StateAlive; st <= StateLeft; st++ {
			if uint8(st) != s.State {
				cases = append(cases, noNewsCase{fmt.Sprintf("%s %v", s.Name, st), enc(edited(i, func(s *wire.PushPullState) { s.State = uint8(st) })), false})
			}
		}
		if i > 0 {
			swapped := slices.Clone(view)
			swapped[i-1], swapped[i] = swapped[i], swapped[i-1]
			cases = append(cases, noNewsCase{fmt.Sprintf("%s swapped with its predecessor", s.Name), enc(swapped), false})
		}
	}
	for cut := range pkt {
		cases = append(cases, noNewsCase{fmt.Sprintf("truncated to %d bytes", cut), pkt[:cut], false})
	}
	return cases
}

func mustDecode(pkt []byte) wire.Message {
	msgs, err := wire.DecodePacket(pkt)
	if err != nil || len(msgs) != 1 {
		panic(fmt.Sprintf("decode %x: %v", pkt, err))
	}
	return msgs[0]
}

// checkTwins delivers pkt to one twin through HandlePacket and to the
// other through the full path — decode, merge, answer — and requires
// the two to end identical. match is whether the table equals the
// view, which decides the path HandlePacket takes.
func checkTwins(t *testing.T, twins [2]*harness, c noNewsCase) {
	t.Helper()
	a, b := twins[0].node, twins[1].node
	a.mu.Lock()
	_, matched := wire.PushPullMatchesView(c.pkt, a.sortedMembers, wireState)
	a.mu.Unlock()
	if matched != c.match {
		t.Fatalf("%s: table matches the view: %v, want %v", c.name, matched, c.match)
	}
	a.HandlePacket("wire-from", c.pkt)
	b.decodeAndHandle("wire-from", c.pkt)
	if da, db := twinDump(twins[0]), twinDump(twins[1]); da != db {
		t.Fatalf("%s: HandlePacket and the full path part ways:\n--- HandlePacket\n%s--- full path\n%s", c.name, da, db)
	}
}

// TestPushPullNoNewsMatchesFullPath is the differential test of the
// no-news path: for push-pull requests (join and not) and responses
// built from a node's own view, unchanged and edited every way a
// table can differ, HandlePacket leaves a node exactly as decoding and
// merging the same packet leaves its twin: member table and indexes,
// packets sent, events emitted and counters.
func TestPushPullNoNewsMatchesFullPath(t *testing.T) {
	kinds := []struct {
		name string
		kind wire.MsgType
		join bool
	}{
		{"request", wire.TypePushPullReq, false},
		{"join request", wire.TypePushPullReq, true},
		{"response", wire.TypePushPullResp, false},
	}
	setups := []struct {
		name  string
		setup func(*harness)
		all   bool // run every edit, not only the unchanged table
	}{
		{"base", nil, true},
		{"self refuted", func(h *harness) {
			h.inject("m2", &wire.Suspect{Incarnation: 1, Node: "self", From: "m2"})
		}, false},
		{"self leaving", func(h *harness) { h.node.Leave() }, false},
		{"tombstones past the TTL", func(h *harness) {
			h.node.mu.Lock()
			for _, name := range []string{"m4", "m5"} {
				m := h.node.members[name]
				m.StateChange = m.StateChange.Add(-tombstoneTTL - time.Second)
			}
			h.node.mu.Unlock()
		}, false},
	}
	for _, k := range kinds {
		for _, s := range setups {
			t.Run(k.name+"/"+s.name, func(t *testing.T) {
				view := viewStates(newTwins(t, s.setup)[0].node)
				cases := noNewsCases(view, k.kind, k.join)
				if !s.all {
					cases = cases[:2]
				}
				if s.name == "tombstones past the TTL" {
					// A sender reaps them before it sends: the table is
					// the view without them.
					reaped := slices.DeleteFunc(slices.Clone(view), func(s wire.PushPullState) bool { return s.Name == "m4" || s.Name == "m5" })
					cases = append(cases, noNewsCase{"tombstones reaped", pushPullPacket(k.kind, k.join, "m1", reaped), false})
				}
				for _, c := range cases {
					checkTwins(t, newTwins(t, s.setup), c)
				}
			})
		}
	}
}

// TestPushPullNoNewsAllocs: a request and a response whose table equals
// the receiver's view are handled without an allocation, the request's
// answer included.
func TestPushPullNoNewsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin: sync.Pool drops items under -race")
	}
	var b testing.B
	n := newBenchNode(&b, 64)
	if b.Failed() {
		t.Fatal("bench node setup failed")
	}
	view := viewStates(n)
	for _, kind := range []wire.MsgType{wire.TypePushPullReq, wire.TypePushPullResp} {
		pkt := pushPullPacket(kind, false, "member-00001", view)
		n.HandlePacket("from", pkt) // warm the pools
		if allocs := allocsOver(10, func() { n.HandlePacket("from", pkt) }); allocs != 0 {
			t.Errorf("10 no-news %vs allocated %.0f times, want 0", kind, allocs)
		}
	}
	if got := viewStates(n); !slices.Equal(got, view) {
		t.Errorf("view changed under no-news push-pulls")
	}
}
