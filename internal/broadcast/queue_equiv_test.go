package broadcast

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// seedQueue is the original flat-slice, sort-per-GetBroadcasts
// implementation this package shipped with, kept verbatim (minus locking
// and Invalidate) as the executable specification of selection order:
// fewest transmits first, FIFO among equals, transmit-counter reset on
// requeue, greedy byte-budget packing that skips oversized items but
// keeps scanning.
type seedQueue struct {
	numNodes       func() int
	retransmitMult int
	items          []*seedBroadcast
	nextID         uint64
}

type seedBroadcast struct {
	name      string
	payload   []byte
	transmits int
	id        uint64
}

func (q *seedQueue) Queue(name string, payload []byte) {
	kept := q.items[:0]
	for _, b := range q.items {
		if b.name != name {
			kept = append(kept, b)
		}
	}
	q.items = kept
	q.nextID++
	q.items = append(q.items, &seedBroadcast{name: name, payload: payload, id: q.nextID})
}

func (q *seedQueue) Len() int { return len(q.items) }

func (q *seedQueue) Peek(name string) []byte {
	for _, b := range q.items {
		if b.name == name {
			return b.payload
		}
	}
	return nil
}

func (q *seedQueue) GetBroadcasts(overhead, limit int) [][]byte {
	if len(q.items) == 0 {
		return nil
	}
	sort.SliceStable(q.items, func(i, j int) bool {
		if q.items[i].transmits != q.items[j].transmits {
			return q.items[i].transmits < q.items[j].transmits
		}
		return q.items[i].id < q.items[j].id
	})
	transmitLimit := RetransmitLimit(q.retransmitMult, q.numNodes())
	var picked [][]byte
	used := 0
	kept := q.items[:0]
	for _, b := range q.items {
		cost := overhead + len(b.payload)
		if used+cost > limit {
			kept = append(kept, b)
			continue
		}
		used += cost
		picked = append(picked, b.payload)
		b.transmits++
		if b.transmits < transmitLimit {
			kept = append(kept, b)
		}
	}
	q.items = kept
	return picked
}

// oracle drives the queue and the seed implementation in lockstep.
type oracle struct {
	fast *Queue
	slow *seedQueue
}

func newOracle(nodes, mult int) oracle {
	return oracle{
		fast: NewQueue(fixedNodes(nodes), mult),
		slow: &seedQueue{numNodes: fixedNodes(nodes), retransmitMult: mult},
	}
}

// The operations an oracle step applies to both queues.
const (
	opQueue = iota
	opPeek
	opSelect
	numOps
)

// step applies one operation to both queues — the payload for opQueue,
// the byte budget for opSelect — and describes how they diverged in
// Peek, selection or Len, or how the queue failed its audit, or returns
// "" if they agree. The seed queue keeps the caller's payload, so each
// opQueue needs a fresh one.
func (o oracle) step(op int, name string, payload []byte, overhead, limit int) string {
	switch op {
	case opQueue:
		o.fast.Queue(name, payload)
		o.slow.Queue(name, payload)
	case opPeek:
		if !bytes.Equal(o.fast.Peek(name), o.slow.Peek(name)) {
			return fmt.Sprintf("Peek(%s) diverged", name)
		}
	case opSelect:
		got := drain(o.fast, overhead, limit)
		want := o.slow.GetBroadcasts(overhead, limit)
		if len(got) != len(want) {
			return fmt.Sprintf("GetBroadcastsInto(%d, %d) selected %d payloads, seed returned %d",
				overhead, limit, len(got), len(want))
		}
		for i := range got {
			if got[i] != string(want[i]) {
				return fmt.Sprintf("payload %d diverged from seed selection order", i)
			}
		}
	}
	if err := audit(o.fast); err != nil {
		return err.Error()
	}
	if o.fast.Len() != o.slow.Len() {
		return fmt.Sprintf("Len = %d, seed = %d", o.fast.Len(), o.slow.Len())
	}
	return ""
}

// TestQueueMatchesSeedImplementation drives the queue and the seed
// implementation through identical randomized interleavings of
// Queue/Peek/GetBroadcastsInto (with heterogeneous payload sizes
// and tight byte budgets, so the oversized-skip path is exercised) and
// requires the selection sequences to be byte-identical.
func TestQueueMatchesSeedImplementation(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		nodes := 1 + rng.Intn(512)
		mult := 1 + rng.Intn(4)
		o := newOracle(nodes, mult)

		ops := 1 + rng.Intn(200)
		for op := 0; op < ops; op++ {
			var msg string
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4:
				name := fmt.Sprintf("m%d", rng.Intn(24))
				// Size classes from tiny to oversized-for-most-budgets.
				payload := make([]byte, []int{2, 10, 40, 200, 900}[rng.Intn(5)])
				rng.Read(payload)
				msg = o.step(opQueue, name, payload, 0, 0)
			case 5:
				msg = o.step(opPeek, fmt.Sprintf("m%d", rng.Intn(24)), nil, 0, 0)
			default:
				overhead := rng.Intn(4)
				limit := []int{16, 64, 256, 1400}[rng.Intn(4)]
				msg = o.step(opSelect, "", nil, overhead, limit)
			}
			if msg != "" {
				t.Fatalf("trial %d op %d: %s", trial, op, msg)
			}
		}
	}

	// The sizes the workloads reach: a join storm queues an update about
	// most of 400 names at N = 384 and λ = 4, drained through the packet
	// path's budget (overhead 2, limit 1400) over 20–60-byte payloads.
	// The first 600 ops are the storm (one select in ten), the rest a
	// steady mix that drains the queue back down.
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		o := newOracle(384, 4)
		peak := 0
		for op := 0; op < 3000; op++ {
			kind := opQueue
			if op < 600 {
				if rng.Intn(10) == 0 {
					kind = opSelect
				}
			} else {
				kind = []int{opQueue, opQueue, opQueue, opQueue, opQueue, opPeek,
					opSelect, opSelect, opSelect, opSelect}[rng.Intn(10)]
			}
			name := fmt.Sprintf("m%d", rng.Intn(400))
			var payload []byte
			if kind == opQueue {
				payload = make([]byte, 20+rng.Intn(41))
				rng.Read(payload)
			}
			if msg := o.step(kind, name, payload, 2, 1400); msg != "" {
				t.Fatalf("production trial %d op %d: %s", trial, op, msg)
			}
			peak = max(peak, o.fast.Len())
		}
		if peak < 256 {
			t.Fatalf("production trial %d peaked at %d queued updates, want a join storm's few hundred", trial, peak)
		}
	}
}

// FuzzQueueMatchesSeed drives the queue and the seed implementation
// from fuzz bytes. The first two bytes set the cluster size and λ; each
// following three bytes are one operation: its kind, a member name (one
// of 256), and the payload length for a Queue or the overhead and byte
// budget for a selection.
func FuzzQueueMatchesSeed(f *testing.F) {
	f.Add([]byte{64, 3, 0, 1, 10, 0, 2, 200, 3, 0, 20, 1, 1, 0, 2, 2, 0, 3, 5, 255})
	rng := rand.New(rand.NewSource(1))
	// N = 384, λ = 4: 80 queues, then a mix. Kept short so minimizing
	// the inputs grown from it stays quick; the test above covers size.
	storm := []byte{192, 3}
	for i := 0; i < 120; i++ {
		op := byte(opQueue)
		if i >= 80 {
			op = byte(rng.Intn(numOps))
		}
		storm = append(storm, op, byte(rng.Intn(256)), byte(20+rng.Intn(41)))
	}
	f.Add(storm)

	var names [256]string
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		o := newOracle(2*int(data[0]), 1+int(data[1]%4))
		for k := 0; 2+3*k+2 < len(data); k++ {
			op, arg, size := data[2+3*k], data[2+3*k+1], data[2+3*k+2]
			kind := int(op % numOps)
			var payload []byte
			if kind == opQueue {
				payload = make([]byte, size)
				for i := range payload {
					payload[i] = byte(k) ^ byte(i)
				}
			}
			if msg := o.step(kind, names[arg], payload, int(arg%4), 6*int(size)); msg != "" {
				t.Fatalf("op %d: %s", k, msg)
			}
		}
	})
}
