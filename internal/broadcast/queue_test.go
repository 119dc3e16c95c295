package broadcast

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func fixedNodes(n int) func() int { return func() int { return n } }

// drain collects one GetBroadcastsInto selection as strings.
func drain(q *Queue, overhead, limit int) []string {
	var got []string
	q.GetBroadcastsInto(overhead, limit, func(p []byte) {
		got = append(got, string(p))
	})
	return got
}

// audit checks the queue's internal invariants: byName and items hold
// the same records, one per name; items is in (transmits, id) order;
// and minLen is at most every queued payload's length.
func audit(q *Queue) error {
	if len(q.byName) != len(q.items) {
		return fmt.Errorf("audit: %d names indexed, %d items queued", len(q.byName), len(q.items))
	}
	for i, b := range q.items {
		if q.byName[b.Name] != b {
			return fmt.Errorf("audit: item %d (%s) is not the record indexed under its name", i, b.Name)
		}
		if i > 0 {
			if a := q.items[i-1]; a.transmits > b.transmits || a.transmits == b.transmits && a.id >= b.id {
				return fmt.Errorf("audit: items %d (%d, %d) and %d (%d, %d) out of (transmits, id) order",
					i-1, a.transmits, a.id, i, b.transmits, b.id)
			}
		}
		if len(b.Payload) < q.minLen {
			return fmt.Errorf("audit: item %d holds %d bytes, below minLen %d", i, len(b.Payload), q.minLen)
		}
	}
	return nil
}

func TestRetransmitLimit(t *testing.T) {
	cases := []struct {
		mult, n, want int
	}{
		{4, 0, 1},    // log10(1) = 0 → floor 1
		{4, 1, 4},    // ceil(log10(2)) = 1
		{4, 9, 4},    // ceil(log10(10)) = 1
		{4, 10, 8},   // ceil(log10(11)) = 2
		{4, 99, 8},   // ceil(log10(100)) = 2
		{4, 100, 12}, // ceil(log10(101)) = 3
		{4, 128, 12}, // the paper's cluster size
		{1, 128, 3},  //
		{4, -5, 1},   // negative clamps
		{0, 128, 1},  // degenerate multiplier floors at 1

		// Exact powers of ten are where a float
		// ceil(log10(n+1)) can mis-round (2.999…→3 vs 4
		// depending on libm); pin both sides of each boundary.
		{1, 999, 3},        // n+1 = 1000 exactly
		{1, 1000, 4},       // n+1 = 1001
		{1, 9999, 4},       // n+1 = 10000 exactly
		{1, 10000, 5},      // n+1 = 10001
		{1, 99999, 5},      // n+1 = 1e5 exactly
		{1, 100000, 6},     // n+1 = 1e5 + 1
		{1, 999999, 6},     // n+1 = 1e6 exactly
		{1, 1000000, 7},    // n+1 = 1e6 + 1
		{3, 999999999, 27}, // n+1 = 1e9 exactly
		{3, 1000000000, 30},
	}
	for _, c := range cases {
		if got := RetransmitLimit(c.mult, c.n); got != c.want {
			t.Errorf("RetransmitLimit(%d, %d) = %d, want %d", c.mult, c.n, got, c.want)
		}
	}
}

func TestQueueFIFOAmongEqualTransmits(t *testing.T) {
	q := NewQueue(fixedNodes(128), 4)
	q.Queue("a", []byte("aa"))
	q.Queue("b", []byte("bb"))
	q.Queue("c", []byte("cc"))

	got := drain(q, 0, 1000)
	if len(got) != 3 {
		t.Fatalf("got %d payloads, want 3", len(got))
	}
	for i, want := range []string{"aa", "bb", "cc"} {
		if got[i] != want {
			t.Errorf("payload %d = %q, want %q", i, got[i], want)
		}
	}
}

func TestQueuePrefersFewerTransmits(t *testing.T) {
	q := NewQueue(fixedNodes(128), 4)
	q.Queue("old", []byte("old"))
	// Transmit "old" once.
	if got := drain(q, 0, 1000); len(got) != 1 {
		t.Fatalf("first draw: %d payloads", len(got))
	}
	q.Queue("new", []byte("new"))

	// With budget for one payload, the fresh update must win.
	got := drain(q, 0, 3)
	if len(got) != 1 || got[0] != "new" {
		t.Fatalf("got %q, want [new]", got)
	}
}

func TestQueueInvalidationReplacesSameMember(t *testing.T) {
	q := NewQueue(fixedNodes(128), 4)
	q.Queue("m", []byte("suspect"))
	q.Queue("m", []byte("alive"))
	if q.Len() != 1 {
		t.Fatalf("queue len %d, want 1 after replacement", q.Len())
	}
	got := drain(q, 0, 1000)
	if len(got) != 1 || got[0] != "alive" {
		t.Fatalf("got %q, want [alive]", got)
	}
}

func TestQueueReplacementResetsTransmitBudget(t *testing.T) {
	// Re-queueing (as LHA-Suspicion's re-gossip does) must restore a
	// fresh transmit budget.
	q := NewQueue(fixedNodes(1), 1) // limit = 1 transmit
	q.Queue("m", []byte("one"))
	if got := drain(q, 0, 1000); len(got) != 1 {
		t.Fatal("first transmit missing")
	}
	if q.Len() != 0 {
		t.Fatal("broadcast should be spent after hitting the limit")
	}
	q.Queue("m", []byte("two"))
	if got := drain(q, 0, 1000); len(got) != 1 || got[0] != "two" {
		t.Fatalf("re-queued broadcast not transmitted: %q", got)
	}
}

func TestQueueDropsAtRetransmitLimit(t *testing.T) {
	q := NewQueue(fixedNodes(9), 4) // limit = 4·ceil(log10(10)) = 4
	q.Queue("m", []byte("mm"))
	for i := 0; i < 4; i++ {
		if got := drain(q, 0, 1000); len(got) != 1 {
			t.Fatalf("draw %d: %d payloads", i, len(got))
		}
	}
	if got := drain(q, 0, 1000); len(got) != 0 {
		t.Fatalf("payload served beyond retransmit limit: %q", got)
	}
	if q.Len() != 0 {
		t.Errorf("queue len %d after exhaustion", q.Len())
	}
}

func TestQueueByteBudget(t *testing.T) {
	q := NewQueue(fixedNodes(128), 4)
	q.Queue("a", make([]byte, 100))
	q.Queue("b", make([]byte, 100))
	q.Queue("c", make([]byte, 100))

	// Budget for exactly two payloads with 2 bytes overhead each.
	got := drain(q, 2, 204)
	if len(got) != 2 {
		t.Fatalf("got %d payloads, want 2", len(got))
	}
	// The third stays queued.
	if q.Len() != 3 { // a and b transmitted once (limit 12), still queued
		t.Errorf("queue len %d, want 3", q.Len())
	}
}

func TestQueueSkipsOversizedButPacksSmaller(t *testing.T) {
	q := NewQueue(fixedNodes(128), 4)
	q.Queue("big", make([]byte, 500))
	q.Queue("small", make([]byte, 10))
	got := drain(q, 0, 100)
	if len(got) != 1 || len(got[0]) != 10 {
		t.Fatalf("expected only the small payload, got %d payloads", len(got))
	}
}

func TestPeekDoesNotSpendBudget(t *testing.T) {
	q := NewQueue(fixedNodes(1), 1) // limit 1
	q.Queue("m", []byte("mm"))
	for i := 0; i < 5; i++ {
		if got := q.Peek("m"); string(got) != "mm" {
			t.Fatalf("peek %d: %q", i, got)
		}
	}
	if got := drain(q, 0, 1000); len(got) != 1 {
		t.Fatal("peeking consumed the transmit budget")
	}
	if q.Peek("absent") != nil {
		t.Error("peek of absent member returned payload")
	}
}

func TestQuickTransmitCountNeverExceedsLimit(t *testing.T) {
	// Property: however GetBroadcastsInto is called, no payload is
	// handed out more than RetransmitLimit times, and the queue passes
	// its audit after every call.
	f := func(seed int64, nNodes uint8, draws uint8) bool {
		n := int(nNodes%64) + 1
		limit := RetransmitLimit(4, n)
		q := NewQueue(fixedNodes(n), 4)
		rng := rand.New(rand.NewSource(seed))
		counts := map[string]int{}
		for i := 0; i < 5; i++ {
			q.Queue(fmt.Sprintf("m%d", i), []byte(fmt.Sprintf("payload-%d", i)))
		}
		for i := 0; i < int(draws); i++ {
			for _, p := range drain(q, 2, 1+rng.Intn(64)) {
				counts[p]++
			}
			if err := audit(q); err != nil {
				t.Log(err)
				return false
			}
		}
		for _, c := range counts {
			if c > limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickInvalidationKeepsOnePerMember(t *testing.T) {
	// Property: after any sequence of Queue calls, at most one broadcast
	// per member name is queued, and the queue passes its audit.
	f := func(names []uint8) bool {
		q := NewQueue(fixedNodes(128), 4)
		seen := map[string]bool{}
		for i, n := range names {
			name := fmt.Sprintf("m%d", n%10)
			q.Queue(name, []byte{byte(i)})
			seen[name] = true
			if err := audit(q); err != nil {
				t.Log(err)
				return false
			}
		}
		return q.Len() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueueCopiesCallerPayload(t *testing.T) {
	// Queue must not alias the caller's buffer: the packet path marshals
	// into pooled scratch that is overwritten right after queueing.
	q := NewQueue(fixedNodes(128), 4)
	src := []byte("pristine")
	q.Queue("m", src)
	for i := range src {
		src[i] = 'X'
	}
	if got := q.Peek("m"); string(got) != "pristine" {
		t.Fatalf("Peek = %q after mutating source, want %q", got, "pristine")
	}
	var emitted []string
	q.GetBroadcastsInto(0, 1000, func(p []byte) { emitted = append(emitted, string(p)) })
	if len(emitted) != 1 || emitted[0] != "pristine" {
		t.Fatalf("emitted %q after mutating source, want [pristine]", emitted)
	}
}

func TestQueueSteadyStateAllocationFree(t *testing.T) {
	// Once the freelist is warm, Queue + GetBroadcastsInto must not
	// allocate: Broadcast structs and payload buffers are recycled.
	q := NewQueue(fixedNodes(16), 1)
	payload := make([]byte, 40)
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
	}
	work := func() {
		for _, name := range names {
			q.Queue(name, payload)
		}
		for q.Len() > 0 {
			q.GetBroadcastsInto(2, 1400, func([]byte) {})
		}
	}
	work() // warm the freelist and slice storage
	if allocs := testing.AllocsPerRun(100, work); allocs > 0 {
		t.Errorf("steady-state queue cycle allocates %.1f times, want 0", allocs)
	}
}

func BenchmarkQueueAndDrain(b *testing.B) {
	q := NewQueue(fixedNodes(128), 4)
	payload := make([]byte, 40)
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Queue(names[i%32], payload)
		if i%8 == 0 {
			q.GetBroadcastsInto(2, 1400, func([]byte) {})
		}
	}
}
