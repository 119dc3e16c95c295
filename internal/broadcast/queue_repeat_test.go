package broadcast

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestRepeatMatchesSequentialSelection is the shared-encode equivalence
// pin: when a selection took the whole queue with no drops, a repeat
// must leave the queue in exactly the state a second GetBroadcastsInto
// would — and that second call (run on a twin queue) must emit the
// byte sequence the first call emitted, so reusing the first call's
// encoding is sound.
func TestRepeatMatchesSequentialSelection(t *testing.T) {
	build := func() *Queue {
		q := NewQueue(fixedNodes(128), 4) // limit 12: no drops in a few rounds
		q.Queue("a", []byte("aaaa"))
		q.Queue("b", []byte("bb"))
		// Promote "a" and "b" into a higher bucket so the walk spans
		// several transmit counts.
		drain(q, 1, 1024)
		q.Queue("c", []byte("cccccc"))
		return q
	}

	seq := build()    // baseline: three sequential selections
	shared := build() // shared encode: one selection + repeats

	first := drain(seq, 1, 1024)
	second := drain(seq, 1, 1024)
	third := drain(seq, 1, 1024)
	if !reflect.DeepEqual(first, second) || !reflect.DeepEqual(second, third) {
		t.Fatalf("sequential full selections diverged: %v, %v, %v", first, second, third)
	}

	got := drain(shared, 1, 1024)
	if !reflect.DeepEqual(got, first) {
		t.Fatalf("twin queue selected %v, want %v", got, first)
	}
	for i := 0; i < 2; i++ {
		if !shared.RepeatBroadcastsInto(1, 1024) {
			t.Fatalf("repeat %d refused on a fully-selected, drop-free queue", i+1)
		}
	}

	// Both queues must now be in the identical state: the next real
	// selection emits the same sequence on each.
	a, b := drain(seq, 1, 1024), drain(shared, 1, 1024)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("after repeats, selections diverge: sequential %v, shared %v", a, b)
	}
}

// TestRepeatRefusesOnPartialSelection verifies the budget-divergence
// condition: a selection that left items behind (byte budget) is not
// repeatable, because the next call would emit a different set.
func TestRepeatRefusesOnPartialSelection(t *testing.T) {
	q := NewQueue(fixedNodes(128), 4)
	q.Queue("a", []byte("aaaa"))
	q.Queue("b", []byte("bbbbbbbbbb"))
	if got := drain(q, 1, 6); len(got) != 1 {
		t.Fatalf("selected %v, want just the small item", got)
	}
	if q.RepeatBroadcastsInto(1, 6) {
		t.Fatal("repeat accepted after a budget-limited selection")
	}
}

// TestRepeatRefusesOnDrop verifies the transmit-limit divergence
// condition: a selection that dropped a spent item is not repeatable
// (the next call would no longer include it).
func TestRepeatRefusesOnDrop(t *testing.T) {
	q := NewQueue(fixedNodes(1), 1) // limit 1: items are spent on first transmit
	q.Queue("a", []byte("aa"))
	if got := drain(q, 1, 1024); len(got) != 1 {
		t.Fatalf("selected %v, want the one item", got)
	}
	if q.RepeatBroadcastsInto(1, 1024) {
		t.Fatal("repeat accepted after the selection dropped its item")
	}
}

// TestRepeatRefusesOnParamOrMutationDivergence verifies that a changed
// budget, a changed overhead, or an intervening Queue clears
// repeatability.
func TestRepeatRefusesOnParamOrMutationDivergence(t *testing.T) {
	fresh := func() *Queue {
		q := NewQueue(fixedNodes(128), 4)
		q.Queue("a", []byte("aaaa"))
		q.Queue("b", []byte("bb"))
		drain(q, 1, 1024)
		return q
	}

	if q := fresh(); q.RepeatBroadcastsInto(2, 1024) {
		t.Fatal("repeat accepted a different overhead")
	}
	if q := fresh(); q.RepeatBroadcastsInto(1, 512) {
		t.Fatal("repeat accepted a different limit")
	}
	q := fresh()
	q.Queue("c", []byte("cc"))
	if q.RepeatBroadcastsInto(1, 1024) {
		t.Fatal("repeat accepted after Queue mutated the selection")
	}
}

// TestRepeatAppliesDropsAndStops verifies the repeat's own transmit
// accounting: a repeat that promotes items to the retransmit limit
// drops them, exactly as the real second call would, and further
// repeats refuse.
func TestRepeatAppliesDropsAndStops(t *testing.T) {
	q := NewQueue(fixedNodes(9), 2) // limit = 2·ceil(log10(10)) = 2 transmits
	q.Queue("a", []byte("aa"))
	q.Queue("b", []byte("bb"))
	if got := drain(q, 1, 1024); len(got) != 2 {
		t.Fatalf("selected %v, want both items", got)
	}
	if !q.RepeatBroadcastsInto(1, 1024) {
		t.Fatal("repeat refused a fully-selected, drop-free queue")
	}
	if q.Len() != 0 {
		t.Fatalf("queue holds %d items after the limit-reaching repeat, want 0", q.Len())
	}
	if q.RepeatBroadcastsInto(1, 1024) {
		t.Fatal("repeat accepted an emptied queue")
	}
	if got := drain(q, 1, 1024); len(got) != 0 {
		t.Fatalf("emptied queue emitted %v", got)
	}
}

// repeatShape sizes one TestQuickRepeatEquivalence trial.
type repeatShape struct {
	nodes, mult, limit int
	names              int // distinct member names
	storm, steps       int // queue-only steps first, then mixed steps
	minLen, maxLen     int // payload length range
}

// TestQuickRepeatEquivalence drives a twin pair of queues through
// random mixed workloads: whenever the shared-encode queue's repeat is
// accepted, the baseline queue runs a real selection instead, and the
// two must emit identical sequences and stay in identical states. This
// is the randomized version of the hand-built equivalence pin. The last
// trials run at the sizes the workloads reach (see
// TestQueueMatchesSeedImplementation) and must take the repeat path.
// The seed implementation runs as a third twin throughout.
func TestQuickRepeatEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nodes := 1 + rng.Intn(200)
		mult := 1 + rng.Intn(3)
		limit := 32 + rng.Intn(256)
		repeatTrial(t, rng, trial, repeatShape{nodes: nodes, mult: mult, limit: limit,
			names: 8, steps: 60, minLen: 1, maxLen: 40})
	}
	repeats := 0
	for trial := 50; trial < 60; trial++ {
		repeats += repeatTrial(t, rng, trial, repeatShape{nodes: 384, mult: 4, limit: 1400,
			names: 400, storm: 400, steps: 1200, minLen: 20, maxLen: 60})
	}
	if repeats == 0 {
		t.Fatal("no production-size trial accepted a repeat")
	}
}

// repeatTrial runs one trial and returns how many repeats the twin
// accepted. The baseline's selections and Len are also held to the seed
// implementation's, and both queues pass their audit after every step.
func repeatTrial(t *testing.T, rng *rand.Rand, trial int, shape repeatShape) (repeats int) {
	base := NewQueue(fixedNodes(shape.nodes), shape.mult)
	twin := NewQueue(fixedNodes(shape.nodes), shape.mult)
	slow := &seedQueue{numNodes: fixedNodes(shape.nodes), retransmitMult: shape.mult}

	var lastTwin []string // the twin's most recent emitted selection
	for step := 0; step < shape.storm+shape.steps; step++ {
		kind := 0
		if step >= shape.storm {
			kind = rng.Intn(3)
		}
		switch kind {
		case 0:
			name := fmt.Sprintf("m%d", rng.Intn(shape.names))
			payload := make([]byte, shape.minLen+rng.Intn(shape.maxLen-shape.minLen+1))
			for i := range payload {
				payload[i] = byte(rng.Intn(256))
			}
			base.Queue(name, payload)
			twin.Queue(name, payload)
			slow.Queue(name, payload)
		default:
			want := drain(base, 2, shape.limit)
			var seed []string
			for _, p := range slow.GetBroadcasts(2, shape.limit) {
				seed = append(seed, string(p))
			}
			if !reflect.DeepEqual(seed, want) {
				t.Fatalf("trial %d step %d: baseline selected %q, seed %q", trial, step, want, seed)
			}
			if twin.RepeatBroadcastsInto(2, shape.limit) {
				repeats++
				// The twin promised this selection equals its own
				// previous emission; the baseline's real selection is
				// the ground truth that reuse must match.
				if !reflect.DeepEqual(lastTwin, want) {
					t.Fatalf("trial %d step %d: repeat reused %q, baseline selected %q",
						trial, step, lastTwin, want)
				}
			} else {
				got := drain(twin, 2, shape.limit)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d step %d: selections diverged:\n got %q\nwant %q",
						trial, step, got, want)
				}
				lastTwin = got
			}
		}
		for _, q := range []*Queue{base, twin} {
			if err := audit(q); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
		if base.Len() != twin.Len() {
			t.Fatalf("trial %d step %d: sizes diverged: base %d, twin %d",
				trial, step, base.Len(), twin.Len())
		}
		if base.Len() != slow.Len() {
			t.Fatalf("trial %d step %d: Len = %d, seed = %d", trial, step, base.Len(), slow.Len())
		}
	}
	return repeats
}
