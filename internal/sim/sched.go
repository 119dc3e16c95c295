// Package sim provides the discrete-event substrate the paper's
// experiments run on: a virtual-time scheduler, a Clock implementation
// for the protocol core, and a simulated network with per-member anomaly
// gates that reproduce the paper's "block before sending / after
// receiving" slow-processing model (§V-D), including the parts of a real
// memberlist process that keep running while blocked (timers) and the
// parts that do not (inbound message processing, sends).
package sim

import (
	"math"
	"math/bits"
	"time"
)

// Event is a scheduled callback. It can be stopped before it runs, and
// re-armed with Reset at any time.
type Event struct {
	// fn is the callback. Pooled events (scheduleArg) leave it nil and
	// use the closure-free fnArg/arg pair instead, so the hot packet path
	// allocates nothing per event.
	fn    func()
	fnArg func(any)
	arg   any

	// sched is the scheduler the event is pending on; nil once it has
	// run or been stopped, and always nil for pooled events, which are
	// never handed out and so can never be stopped.
	sched *Scheduler

	// home is the scheduler a handed-out event came from, kept past Stop
	// and execution (sched cannot be: it doubles as the pending flag) so
	// that Reset can push the event again. Nil for pooled events.
	home *Scheduler

	// index is the event's position in sched.heap while it is pending.
	index int
}

// Stop removes the event from its scheduler at once, in O(log n). It
// reports whether the event was still pending: false after it has run
// (including from inside its own callback) or after an earlier Stop.
func (e *Event) Stop() bool {
	if e == nil || e.sched == nil {
		return false
	}
	e.sched.removeAt(e.index)
	return true
}

// Reset re-arms the event to run d from now (negative d is treated as
// zero), in place: no new Event is allocated. It is Stop followed by one
// push, so it consumes exactly one schedule-order number, like the
// Schedule call it stands in for, and reports what that Stop would have.
// It may be called from inside the event's own callback.
func (e *Event) Reset(d time.Duration) bool {
	pending := e.Stop()
	e.home.arm(d, e)
	return pending
}

// entry is one heap slot. The ordering key lives in the slot, by value,
// so sifting compares without touching the events themselves.
type entry struct {
	// at is the event's virtual time in nanoseconds since the
	// scheduler's epoch; seq is its schedule order, the same-instant
	// tie-break. Together they are the total execution order.
	at  int64
	seq uint64
	ev  *Event
}

// before is 1 if a runs before b, else 0: the borrow out of the 128-bit
// subtraction (a.at:a.seq) − (b.at:b.seq), computed by SUB and SBB with
// no branch. Comparing at unsigned is right because at is never
// negative: the clock starts at 0 and every deadline is clamped to
// [now, math.MaxInt64].
func before(a, b *entry) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow & 1 // always 0 or 1; the mask lets index checks go
}

// heapArity is the heap's branching factor. Four children per node
// halve the depth of a binary heap, and a node's children sit in
// adjacent slots, so a sift-down costs fewer cache lines per level.
const heapArity = 4

// Scheduler is a single-threaded discrete-event loop. All protocol logic
// in a simulation runs inside its callbacks; nothing in this package is
// safe for concurrent use, by design (determinism).
type Scheduler struct {
	epoch time.Time
	now   int64 // ns since epoch
	seq   uint64

	// heap is the pending-event set: an array-backed 4-ary min-heap
	// ordered by (at, seq). Every entry is live — Stop removes its event
	// immediately — so the root is always the next event to run.
	heap []entry

	// executed counts events run, for diagnostics and runaway guards.
	executed uint64

	// free is the pool of recycled pooled events (see scheduleArg).
	free []*Event
}

// NewScheduler returns a scheduler whose virtual clock starts at start.
func NewScheduler(start time.Time) *Scheduler {
	return &Scheduler{epoch: start}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.epoch.Add(time.Duration(s.now)) }

// Len returns the number of pending events. Stopped events leave the
// queue at once, so every one counted will run.
func (s *Scheduler) Len() int { return len(s.heap) }

// Executed returns the number of events run so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Schedule runs fn d from now. Negative d is treated as zero (the event
// runs on the next step, after already-scheduled events for this
// instant).
func (s *Scheduler) Schedule(d time.Duration, fn func()) *Event {
	e := &Event{fn: fn, home: s}
	s.arm(d, e)
	return e
}

// arm makes the handed-out event e pending, d from now.
func (s *Scheduler) arm(d time.Duration, e *Event) {
	e.sched = s
	s.push(d, e)
}

// ScheduleAt runs fn at the given virtual time, which must not be before
// Now (it is clamped if it is).
func (s *Scheduler) ScheduleAt(at time.Time, fn func()) *Event {
	return s.Schedule(at.Sub(s.Now()), fn)
}

// scheduleArg runs fn(arg) d from now on a pooled event: no Event and no
// closure are allocated in steady state. Pooled events cannot be
// stopped — no handle is returned — which is exactly what the network's
// per-packet delivery and service events need.
func (s *Scheduler) scheduleArg(d time.Duration, fn func(any), arg any) {
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{}
	}
	e.fnArg, e.arg = fn, arg
	s.push(d, e)
}

// push adds e to the heap d from now, behind everything already
// scheduled for that instant. Negative d is treated as zero, and the
// sum saturates at math.MaxInt64 rather than wrapping.
func (s *Scheduler) push(d time.Duration, e *Event) {
	s.seq++
	s.heap = append(s.heap, entry{})
	at := s.now + min(max(int64(d), 0), math.MaxInt64-s.now)
	s.siftUp(len(s.heap)-1, entry{at: at, seq: s.seq, ev: e})
}

// siftUp fills the hole at slot i with x, first moving the hole towards
// the root past every ancestor that orders after x.
func (s *Scheduler) siftUp(i int, x entry) {
	h := s.heap
	for i > 0 {
		p := (i - 1) / heapArity
		if before(&x, &h[p]) == 0 {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = x
	x.ev.index = i
}

// siftDown fills the hole at slot i with x, first moving the hole
// towards the leaves past every smallest child that orders before x.
// Of four children, the smallest wins a two-round tournament of
// branch-free compares, picked by mask, so the only branch per level is
// whether x stops there. A partial last group is scanned.
func (s *Scheduler) siftDown(i int, x entry) {
	h := s.heap
	for {
		first, c := heapArity*i+1, 0
		if first+heapArity <= len(h) {
			g := (*[heapArity]entry)(h[first : first+heapArity])
			a, b := before(&g[1], &g[0]), 2+before(&g[3], &g[2])
			c = first + int(a^(a^b)&-before(&g[b], &g[a]))
		} else if first < len(h) {
			c = first
			for j := first + 1; j < len(h); j++ {
				if before(&h[j], &h[c]) == 1 {
					c = j
				}
			}
		} else {
			break
		}
		if before(&h[c], &x) == 0 {
			break
		}
		h[i] = h[c]
		h[i].ev.index = i
		i = c
	}
	h[i] = x
	x.ev.index = i
}

// removeAt takes the entry at slot i out of the heap, marks its event as
// no longer pending, and re-seats the entry from the last slot in the
// hole, which may belong either above or below it.
func (s *Scheduler) removeAt(i int) {
	h := s.heap
	h[i].ev.sched = nil
	last := len(h) - 1
	x := h[last]
	h[last] = entry{}
	s.heap = h[:last]
	if i == last {
		return
	}
	if i > 0 && before(&x, &h[(i-1)/heapArity]) == 1 {
		s.siftUp(i, x)
	} else {
		s.siftDown(i, x)
	}
}

// runNext pops the root and executes it, advancing virtual time to it.
// The heap must not be empty.
func (s *Scheduler) runNext() {
	top := s.heap[0]
	s.removeAt(0)
	s.now = top.at
	s.executed++
	e := top.ev
	if e.fn != nil {
		e.fn()
		return
	}
	// A pooled event is recycled before its callback runs, so a callback
	// that schedules new work can reuse the event it came from.
	fn, arg := e.fnArg, e.arg
	e.fnArg, e.arg = nil, nil
	s.free = append(s.free, e)
	fn(arg)
}

// Step runs the next pending event, advancing virtual time to it. It
// reports whether an event was run (false when the queue is empty).
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	s.runNext()
	return true
}

// RunUntil runs every event scheduled at or before t, then sets the
// virtual clock to t.
func (s *Scheduler) RunUntil(t time.Time) {
	rel := int64(t.Sub(s.epoch))
	for len(s.heap) > 0 && s.heap[0].at <= rel {
		s.runNext()
	}
	if s.now < rel {
		s.now = rel
	}
}

// RunFor advances the simulation by d.
func (s *Scheduler) RunFor(d time.Duration) {
	s.RunUntil(s.Now().Add(d))
}
