// Package broadcast implements SWIM's transmit-limited gossip queue.
//
// Updates about members (suspect, alive, dead) are queued here and
// piggybacked onto failure-detector messages, or flushed by the dedicated
// gossip tick. Each update is retransmitted a bounded number of times —
// λ·⌈log10(n+1)⌉, the classic epidemic dissemination budget — and updates
// that have been sent fewer times are preferred, so fresh information
// spreads even under high update load (SWIM §3.2, Lifeguard §III-A).
//
// The queue is indexed for large clusters: a per-name map gives O(1)
// Queue/Invalidate/Peek, and items are kept in per-transmit-count buckets
// of id-ordered intrusive lists. A populated-bucket bitmap plus an exact
// per-bucket minimum payload length let GetBroadcasts skip empty and
// oversized buckets in O(1), so it walks only the items it selects.
//
// The queue owns every byte it hands out: Queue copies the caller's
// payload into an internal buffer, and spent Broadcast structs (and their
// payload buffers) are recycled through a freelist, so steady-state
// Queue/GetBroadcasts traffic is allocation-free.
package broadcast

import (
	"math/bits"
	"sync"
)

// Broadcast is one queued update.
type Broadcast struct {
	// Name is the member the update is about. A newer update about the
	// same member invalidates an older queued one.
	Name string

	// Payload is the queue's own copy of the encoded message.
	Payload []byte

	// transmits counts how many times the payload has been handed out.
	// It doubles as the index of the bucket holding the item.
	transmits int

	// id breaks ties so ordering is stable and FIFO among equals.
	id uint64

	// prev/next link the item into its bucket's id-ordered list.
	prev, next *Broadcast
}

// bucket holds the queued items at one transmit count, in ascending id
// order (FIFO among equals).
type bucket struct {
	head, tail *Broadcast
	count      int

	// minLen is a lower bound on the payload lengths in the bucket,
	// exact whenever minStale is false. Removing a minimum-length item
	// only marks the bound stale; retighten restores exactness on
	// demand, so the byte-budget skip check never degrades into futile
	// full walks (a stale-small bound can cause a futile walk, never a
	// wrongly skipped item — selection is unaffected either way).
	minLen   int
	minStale bool
}

// insert places b into the bucket in id order. Items arrive with the
// largest id so far in the common cases (fresh updates, and selections
// promoted from the previous bucket), so the walk starts from the tail.
func (k *bucket) insert(b *Broadcast) {
	if k.count == 0 {
		k.minLen, k.minStale = len(b.Payload), false
	} else if len(b.Payload) < k.minLen {
		// The new item undercuts the (lower-bound) minimum, so it is
		// the exact minimum now.
		k.minLen, k.minStale = len(b.Payload), false
	}
	k.count++
	at := k.tail
	for at != nil && at.id > b.id {
		at = at.prev
	}
	if at == nil {
		// New head.
		b.prev, b.next = nil, k.head
		if k.head != nil {
			k.head.prev = b
		} else {
			k.tail = b
		}
		k.head = b
		return
	}
	b.prev, b.next = at, at.next
	if at.next != nil {
		at.next.prev = b
	} else {
		k.tail = b
	}
	at.next = b
}

// remove unlinks b from the bucket. Removing the (possibly unique)
// minimum-length item marks minLen stale; an emptied bucket resets it.
func (k *bucket) remove(b *Broadcast) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		k.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		k.tail = b.prev
	}
	b.prev, b.next = nil, nil
	k.count--
	if k.count == 0 {
		k.minLen, k.minStale = 0, false
	} else if len(b.Payload) == k.minLen {
		k.minStale = true
	}
}

// retighten rescans the bucket and restores an exact minLen. The stored
// value is a lower bound on the true minimum, so the scan can stop early
// the moment it finds a payload matching it (the common case when several
// same-sized updates share a bucket).
func (k *bucket) retighten() {
	k.minStale = false
	if k.count == 0 {
		k.minLen = 0
		return
	}
	floor := k.minLen
	min := -1
	for b := k.head; b != nil; b = b.next {
		if n := len(b.Payload); min < 0 || n < min {
			min = n
			if min == floor {
				break
			}
		}
	}
	k.minLen = min
}

// Queue is a transmit-limited broadcast queue. The zero value is not
// usable; use NewQueue.
//
// Queue is safe for concurrent use.
type Queue struct {
	// NumNodes reports the current cluster size, which sets the
	// retransmit budget. It must be non-nil.
	NumNodes func() int

	// RetransmitMult is λ in the λ·log(n) retransmit budget.
	RetransmitMult int

	mu      sync.Mutex
	byName  map[string]*Broadcast
	buckets []bucket
	size    int
	nextID  uint64

	// occupied is a bitmap over buckets: bit t is set iff buckets[t]
	// holds at least one item, so the emit scan finds populated buckets
	// with TrailingZeros instead of probing empty ones.
	occupied []uint64

	// moved is per-call scratch for selected items awaiting promotion to
	// their next bucket (reused to keep GetBroadcasts allocation-free).
	moved []*Broadcast

	// free recycles spent Broadcast structs and their payload buffers.
	free []*Broadcast

	// futile counts items that were walked by GetBroadcastsInto but not
	// selected (payload would not fit). With exact minLen bounds this
	// stays near zero; tests pin it to catch skip-index regressions.
	futile uint64

	// repeatable records whether the most recent GetBroadcastsInto call
	// is provably repeatable: it selected every queued item (nothing was
	// skipped for budget) and dropped none at the transmit limit. Under
	// those conditions every item was promoted by exactly one transmit,
	// which preserves bucket order and within-bucket id order, so an
	// immediately following call with the same overhead and limit would
	// emit the identical payload sequence — RepeatBroadcastsInto applies
	// that call's state transition without re-emitting. Any queue
	// mutation (Queue, Invalidate, Reset) clears the flag.
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
		NumNodes:       numNodes,
		RetransmitMult: retransmitMult,
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

// setOccupied marks bucket t as populated, growing the bitmap as needed.
func (q *Queue) setOccupied(t int) {
	w := t >> 6
	for len(q.occupied) <= w {
		q.occupied = append(q.occupied, 0)
	}
	q.occupied[w] |= 1 << (uint(t) & 63)
}

// clearOccupied marks bucket t as empty.
func (q *Queue) clearOccupied(t int) {
	q.occupied[t>>6] &^= 1 << (uint(t) & 63)
}

// insertLocked files b under its transmit count, growing the bucket
// slice as needed.
func (q *Queue) insertLocked(b *Broadcast) {
	for len(q.buckets) <= b.transmits {
		q.buckets = append(q.buckets, bucket{})
	}
	q.buckets[b.transmits].insert(b)
	q.setOccupied(b.transmits)
	q.size++
}

// removeLocked unlinks b from its bucket and the name index.
func (q *Queue) removeLocked(b *Broadcast) {
	k := &q.buckets[b.transmits]
	k.remove(b)
	if k.count == 0 {
		q.clearOccupied(b.transmits)
	}
	delete(q.byName, b.Name)
	q.size--
}

// newBroadcastLocked returns a zeroed Broadcast, recycled if possible.
func (q *Queue) newBroadcastLocked() *Broadcast {
	if n := len(q.free); n > 0 {
		b := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return b
	}
	return &Broadcast{}
}

// recycleLocked returns a spent, already-unlinked Broadcast to the
// freelist, retaining its payload buffer for reuse.
func (q *Queue) recycleLocked(b *Broadcast) {
	if len(q.free) >= maxFree {
		return
	}
	b.Name = ""
	b.Payload = b.Payload[:0]
	b.transmits = 0
	b.id = 0
	b.prev, b.next = nil, nil
	q.free = append(q.free, b)
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
	q.mu.Lock()
	defer q.mu.Unlock()

	q.repeatable = false
	if old, ok := q.byName[name]; ok {
		q.removeLocked(old)
		q.recycleLocked(old)
	}

	q.nextID++
	b := q.newBroadcastLocked()
	b.Name = name
	b.Payload = append(b.Payload[:0], payload...)
	b.id = q.nextID
	b.transmits = 0
	q.byName[name] = b
	q.insertLocked(b)
}

// Invalidate drops any queued update about the named member without
// queueing a replacement.
func (q *Queue) Invalidate(name string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.repeatable = false
	if b, ok := q.byName[name]; ok {
		q.removeLocked(b)
		q.recycleLocked(b)
	}
}

// Len returns the number of queued updates.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Reset drops all queued updates.
func (q *Queue) Reset() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.repeatable = false
	q.byName = make(map[string]*Broadcast)
	q.buckets = nil
	q.occupied = nil
	q.size = 0
}

// FutileWalks reports how many items GetBroadcasts has walked without
// selecting over the queue's lifetime. It exists for tests and
// diagnostics: a growing count means the skip index has gone slack.
func (q *Queue) FutileWalks() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.futile
}

// GetBroadcasts selects queued payloads to piggyback on an outgoing
// packet. overhead is the per-payload framing cost and limit the total
// byte budget. Payloads with fewer past transmissions are preferred;
// each selected payload's transmit counter is incremented, and payloads
// that reach the retransmit limit are dropped from the queue.
func (q *Queue) GetBroadcasts(overhead, limit int) [][]byte {
	var picked [][]byte
	q.GetBroadcastsInto(overhead, limit, func(payload []byte) {
		picked = append(picked, append([]byte(nil), payload...))
	})
	return picked
}

// GetBroadcastsInto is GetBroadcasts without the intermediate [][]byte:
// each selected payload is handed to emit in selection order (fewest
// transmits first, FIFO among equals), letting callers pack payloads
// directly into an outgoing packet buffer. The payload slice passed to
// emit is owned by the queue — its buffer is recycled for later updates —
// and must not be retained past the call.
func (q *Queue) GetBroadcastsInto(overhead, limit int, emit func(payload []byte)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return
	}

	transmitLimit := RetransmitLimit(q.RetransmitMult, q.NumNodes())

	used := 0
	startSize, selected, dropped := q.size, 0, 0
	moved := q.moved[:0]
	for w := 0; w < len(q.occupied); w++ {
		word := q.occupied[w]
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			t := w<<6 | bit
			k := &q.buckets[t]
			// A stale bound can only be too small: if it would fail the
			// budget check the true minimum fails too, but if it would
			// pass it must be verified first or the walk may be futile.
			if k.minStale && limit-used >= overhead+k.minLen {
				k.retighten()
			}
			if limit-used < overhead+k.minLen {
				continue
			}
			for b := k.head; b != nil; {
				next := b.next
				cost := overhead + len(b.Payload)
				if used+cost <= limit {
					used += cost
					selected++
					emit(b.Payload)
					k.remove(b)
					if k.count == 0 {
						q.clearOccupied(t)
					}
					b.transmits++
					if b.transmits < transmitLimit {
						// Re-filed after the walk so an item is handed out
						// at most once per call.
						moved = append(moved, b)
					} else {
						delete(q.byName, b.Name)
						q.recycleLocked(b)
						dropped++
					}
					q.size--
					if k.minStale && limit-used >= overhead+k.minLen {
						k.retighten()
					}
					if limit-used < overhead+k.minLen {
						break // nothing else in this bucket can fit
					}
				} else {
					q.futile++
				}
				b = next
			}
		}
	}
	for _, b := range moved {
		q.insertLocked(b)
	}
	q.moved = moved[:0]
	q.repeatable = selected > 0 && selected == startSize && dropped == 0
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
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.repeatable || overhead != q.lastOverhead || limit != q.lastLimit || q.size == 0 {
		return false
	}

	// The drop threshold is recomputed exactly as the repeated call
	// would compute it; a cluster-size change between calls shifts the
	// threshold for both paths identically.
	transmitLimit := RetransmitLimit(q.RetransmitMult, q.NumNodes())
	dropped := 0
	moved := q.moved[:0]
	for w := 0; w < len(q.occupied); w++ {
		word := q.occupied[w]
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			t := w<<6 | bit
			k := &q.buckets[t]
			for b := k.head; b != nil; {
				next := b.next
				k.remove(b)
				b.transmits++
				if b.transmits < transmitLimit {
					// Re-filed after the walk, like GetBroadcastsInto.
					moved = append(moved, b)
				} else {
					delete(q.byName, b.Name)
					q.recycleLocked(b)
					dropped++
				}
				q.size--
				b = next
			}
			q.clearOccupied(t)
		}
	}
	for _, b := range moved {
		q.insertLocked(b)
	}
	q.moved = moved[:0]
	// The repeat selected the whole queue by construction; it stays
	// repeatable unless this promotion dropped items (the next real call
	// would then select a smaller set) or emptied the queue.
	q.repeatable = dropped == 0 && q.size > 0
	return true
}

// Peek returns the payload queued for the named member, or nil. The
// transmit counter is not changed. Used by the Buddy System to
// force-include a suspicion on pings to the suspected member. The
// returned slice is owned by the queue and only valid until the next
// mutating call; callers needing to retain it must copy.
func (q *Queue) Peek(name string) []byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	if b, ok := q.byName[name]; ok {
		return b.Payload
	}
	return nil
}
