// Package broadcast implements SWIM's transmit-limited gossip queue.
//
// Updates about members (suspect, alive, dead) are queued here and
// piggybacked onto failure-detector messages, or flushed by the dedicated
// gossip tick. Each update is retransmitted a bounded number of times —
// λ·⌈log10(n+1)⌉, the classic epidemic dissemination budget — and updates
// that have been sent fewer times are preferred, so fresh information
// spreads even under high update load (SWIM §3.2, Lifeguard §III-A).
//
// The queue is one slice kept in selection order — fewest transmits
// first, then id — plus a per-name map for Queue and Peek. A queue
// holds at most a few hundred updates (N at a join storm), so binary
// search and block copies over that slice are all the index it needs.
//
// The queue owns every byte it hands out: Queue copies the caller's
// payload into an internal buffer, and spent Broadcast structs (and their
// payload buffers) are recycled through a freelist, so steady-state
// Queue/GetBroadcastsInto traffic is allocation-free.
package broadcast

// Broadcast is one queued update.
type Broadcast struct {
	// Name is the member the update is about. A newer update about the
	// same member invalidates an older queued one.
	Name string

	// Payload is the queue's own copy of the encoded message.
	Payload []byte

	// transmits counts how many times the payload has been handed out.
	transmits int

	// id breaks ties so ordering is stable and FIFO among equals.
	id uint64
}

// Queue is a transmit-limited broadcast queue. The zero value is not
// usable; use NewQueue.
//
// Queue is not safe for concurrent use: like the rest of a member's
// protocol state, it is guarded by its owner's lock (the protocol core
// calls it under the node lock).
type Queue struct {
	// numNodes reports the current cluster size, which sets the
	// retransmit budget.
	numNodes func() int

	// retransmitMult is λ in the λ·log(n) retransmit budget.
	retransmitMult int

	byName map[string]*Broadcast
	nextID uint64

	// items holds every queued update in (transmits, id) order.
	items []*Broadcast

	// minLen is a lower bound on the queued payload lengths: exact when
	// set, it only goes stale-small as items leave, and is reset by the
	// first insert into an empty queue. A selection stops once the
	// remaining budget cannot fit it.
	minLen int

	// moved is per-call scratch for selected items awaiting their merge
	// back into items (reused to keep GetBroadcastsInto allocation-free).
	moved []*Broadcast

	// free recycles spent Broadcast structs and their payload buffers.
	free []*Broadcast

	// repeatable records whether the most recent GetBroadcastsInto call
	// is provably repeatable: it selected every queued item (nothing was
	// skipped for budget) and dropped none at the transmit limit. Under
	// those conditions every item was promoted by exactly one transmit,
	// which preserves the queue's order, so an immediately following call
	// with the same overhead and limit would emit the identical payload
	// sequence — RepeatBroadcastsInto applies that call's state
	// transition without re-emitting. Queue clears the flag.
	repeatable   bool
	lastOverhead int
	lastLimit    int
}

// maxFree bounds the freelist so a burst of updates cannot pin an
// unbounded number of payload buffers. It covers the queue's measured
// high-water outside a join storm — at most 79 entries per member under
// the paper's Interval anomaly at N = 128, 12 in a steady N = 384
// cluster — so steady traffic recycles every struct, while a join
// storm's N spent entries per member are mostly left to the collector.
const maxFree = 128

// NewQueue returns a queue with the given cluster-size callback and
// retransmit multiplier.
func NewQueue(numNodes func() int, retransmitMult int) *Queue {
	return &Queue{
		numNodes:       numNodes,
		retransmitMult: retransmitMult,
		byName:         make(map[string]*Broadcast),
	}
}

// pow10 holds the int64-representable powers of ten; the index of the
// first entry ≥ x is ⌈log10(x)⌉ for x ≥ 1.
var pow10 = [...]int64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// RetransmitLimit returns the per-broadcast transmission budget for a
// cluster of n members: mult·⌈log10(n+1)⌉, at least 1. The ceil-log10 is
// computed over an integer power-of-ten table: the float path
// (math.Ceil(math.Log10(n+1))) can land on 2.999…→3-vs-4 style
// mis-roundings at exact powers of ten depending on the platform's libm.
func RetransmitLimit(mult, n int) int {
	if n < 0 {
		n = 0
	}
	x := int64(n) + 1
	d := 0
	for d < len(pow10) && pow10[d] < x {
		d++
	}
	limit := mult * d
	if limit < 1 {
		limit = 1
	}
	return limit
}

// search returns the index of the first item in items, which must be in
// (transmits, id) order, not ordered before b.
func search(items []*Broadcast, b *Broadcast) int {
	lo, hi := 0, len(items)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if it := items[m]; it.transmits < b.transmits || it.transmits == b.transmits && it.id < b.id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// remove takes b out of the slice, then forgets it.
func (q *Queue) remove(b *Broadcast) {
	i := search(q.items, b)
	n := len(q.items) - 1
	copy(q.items[i:], q.items[i+1:])
	q.items[n] = nil
	q.items = q.items[:n]
	q.forget(b)
}

// merge merges moved, itself in (transmits, id) order, into items.
// It works from the back: each promoted item is placed by binary search
// among the items not yet passed, and the block above it shifts once.
func (q *Queue) merge(moved []*Broadcast) {
	hi := len(q.items)
	q.items = append(q.items, moved...)
	for j := len(moved) - 1; j >= 0; j-- {
		b := moved[j]
		p := search(q.items[:hi], b)
		copy(q.items[p+j+1:], q.items[p:hi])
		q.items[p+j] = b
		hi = p
	}
}

// forget drops b from the name index and returns it to the freelist,
// keeping its payload buffer for reuse.
func (q *Queue) forget(b *Broadcast) {
	delete(q.byName, b.Name)
	if len(q.free) < maxFree {
		b.Name, b.Payload = "", b.Payload[:0]
		q.free = append(q.free, b)
	}
}

// Queue adds an update about the named member, invalidating any older
// queued update about the same member. The replacement also resets the
// transmit counter, which is how Lifeguard's re-gossip of independent
// suspicions extends a suspicion's dissemination budget (§IV-B).
//
// The payload is copied: the queue never aliases caller memory, so
// callers may reuse or mutate their buffer immediately (the packet path
// marshals into pooled scratch and relies on this).
func (q *Queue) Queue(name string, payload []byte) {
	q.repeatable = false
	if old, ok := q.byName[name]; ok {
		q.remove(old)
	}

	var b *Broadcast
	if n := len(q.free); n > 0 {
		b, q.free = q.free[n-1], q.free[:n-1]
	} else {
		b = &Broadcast{}
	}
	q.nextID++
	b.Name, b.Payload = name, append(b.Payload[:0], payload...)
	b.transmits, b.id = 0, q.nextID
	q.byName[name] = b
	if len(q.items) == 0 || len(payload) < q.minLen {
		q.minLen = len(payload)
	}
	// The newest id sorts last among the unsent items.
	i := search(q.items, b)
	q.items = append(q.items, nil)
	copy(q.items[i+1:], q.items[i:])
	q.items[i] = b
}

// Len returns the number of queued updates.
func (q *Queue) Len() int { return len(q.items) }

// GetBroadcastsInto selects queued payloads to piggyback on an outgoing
// packet and hands each to emit in selection order, letting callers pack
// payloads directly into an outgoing packet buffer. overhead is the
// per-payload framing cost and limit the total byte budget. Payloads
// with fewer past transmissions are preferred, FIFO among equals; each
// selected payload's transmit counter is incremented, and payloads that
// reach the retransmit limit are dropped from the queue. The payload
// slice passed to emit is owned by the queue — its buffer is recycled
// for later updates — and must not be retained past the call.
func (q *Queue) GetBroadcastsInto(overhead, limit int, emit func(payload []byte)) {
	n := len(q.items)
	if n == 0 {
		return
	}

	transmitLimit := RetransmitLimit(q.retransmitMult, q.numNodes())
	used := 0
	moved := q.moved[:0]
	kept := q.items[:0]
	i := 0
	for ; i < n && limit-used >= overhead+q.minLen; i++ {
		b := q.items[i]
		cost := overhead + len(b.Payload)
		if used+cost > limit {
			kept = append(kept, b)
			continue
		}
		used += cost
		emit(b.Payload)
		b.transmits++
		if b.transmits < transmitLimit {
			// Merged back after the walk so an item is handed out at
			// most once per call.
			moved = append(moved, b)
		} else {
			q.forget(b)
		}
	}
	selected := i - len(kept)
	q.items = append(kept, q.items[i:]...)
	q.merge(moved)
	clear(q.items[len(q.items):n])
	q.moved = moved[:0]
	q.repeatable = selected == n && len(q.items) == n // no skips, no drops
	q.lastOverhead, q.lastLimit = overhead, limit
}

// RepeatBroadcastsInto reports whether a GetBroadcastsInto call with
// the given overhead and limit, made now, would emit exactly the
// payload sequence the previous call emitted — and, when it would,
// applies that call's state transition (every item promoted one
// transmit, items reaching the retransmit limit dropped) without
// re-emitting anything. Callers use it to reuse an already-encoded
// packet across gossip fan-out targets: on true, resend the previous
// bytes; on false, re-select and re-encode.
//
// The previous selection is repeatable only when it selected the whole
// queue with no transmit-limit drops (see the repeatable field); a
// budget-skipped or dropped item, a different overhead or limit, or any
// intervening queue mutation makes the repeat diverge, and the call
// returns false having changed nothing.
func (q *Queue) RepeatBroadcastsInto(overhead, limit int) bool {
	n := len(q.items)
	if !q.repeatable || overhead != q.lastOverhead || limit != q.lastLimit || n == 0 {
		return false
	}

	// The drop threshold is recomputed exactly as the repeated call
	// would compute it; a cluster-size change between calls shifts the
	// threshold for both paths identically. Promoting every item by one
	// transmit keeps the slice in order.
	transmitLimit := RetransmitLimit(q.retransmitMult, q.numNodes())
	kept := q.items[:0]
	for _, b := range q.items {
		b.transmits++
		if b.transmits < transmitLimit {
			kept = append(kept, b)
		} else {
			q.forget(b)
		}
	}
	clear(q.items[len(kept):])
	q.items = kept
	// The repeat selected the whole queue by construction; it stays
	// repeatable unless this promotion dropped items (the next real call
	// would then select a smaller set) or emptied the queue.
	q.repeatable = len(kept) == n
	return true
}

// Peek returns the payload queued for the named member, or nil. The
// transmit counter is not changed. Its one caller is Node.LeavePending,
// which asks whether the leave announcement is still queued; the Buddy
// System builds its own Suspect in sendWithPiggybackLocked. The
// returned slice is owned by the queue and only valid until the next
// mutating call; callers needing to retain it must copy.
func (q *Queue) Peek(name string) []byte {
	if b, ok := q.byName[name]; ok {
		return b.Payload
	}
	return nil
}
