package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lifeguard/internal/timeutil"
)

// The scheduler must be observationally identical to the seed
// implementation: same callback order, same virtual timestamps, same
// Stop and Reset results, same live-event counts, under randomized
// workloads that mix schedules, stops and resets (between runs and from
// inside callbacks, an event's own included), re-entrant scheduling and
// horizon-bounded runs. The oracle has no Reset of its own: its side of
// a reset is Stop plus a fresh schedule of the same callback, which is
// the equivalence Reset promises (one schedule-order number per arm).
// This is the differential-test pattern from the broadcast queue's
// TestQueueMatchesSeedImplementation: the seed implementation is the
// oracle, and it lives only here.

// tracedScheduler is the surface schedTrace drives, implemented by the
// real Scheduler (through liveScheduler) and by the oracle.
type tracedScheduler interface {
	Now() time.Time
	Len() int
	Executed() uint64
	Step() bool
	RunFor(d time.Duration)
	RunUntil(t time.Time)

	after(d time.Duration, fn func()) timeutil.Timer
	at(t time.Time, fn func()) timeutil.Timer
	afterArg(d time.Duration, fn func(any), arg any)
}

// liveScheduler adapts the real Scheduler's methods to tracedScheduler.
type liveScheduler struct{ *Scheduler }

func (s liveScheduler) after(d time.Duration, fn func()) timeutil.Timer { return s.Schedule(d, fn) }
func (s liveScheduler) at(t time.Time, fn func()) timeutil.Timer        { return s.ScheduleAt(t, fn) }
func (s liveScheduler) afterArg(d time.Duration, fn func(any), arg any) {
	s.scheduleArg(d, fn, arg)
}

// oracleScheduler is the seed scheduler: a container/heap binary heap of
// event pointers with lazy cancellation (Stop flags the event, pop
// discards flagged events as it meets them) and a pop-then-push-back
// horizon check. live counts the events that will still run, so Len is
// comparable with the real scheduler's.
type oracleScheduler struct {
	epoch    time.Time
	now      int64
	seq      uint64
	executed uint64
	live     int
	h        oracleHeap
}

type oracleEvent struct {
	at        int64
	seq       uint64
	fn        func()
	cancelled bool
	done      bool
	owner     *oracleScheduler
}

func (e *oracleEvent) stop() bool {
	if e.cancelled || e.done {
		return false
	}
	e.cancelled = true
	e.owner.live--
	return true
}

// oracleTimer is the oracle's handle: the event of its latest arm.
type oracleTimer struct{ ev *oracleEvent }

func (t *oracleTimer) Stop() bool { return t.ev.stop() }

func (t *oracleTimer) Reset(d time.Duration) bool {
	pending := t.ev.stop()
	s := t.ev.owner
	t.ev = s.push(s.now+int64(max(d, 0)), t.ev.fn)
	return pending
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(*oracleEvent)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (s *oracleScheduler) Now() time.Time   { return s.epoch.Add(time.Duration(s.now)) }
func (s *oracleScheduler) Len() int         { return s.live }
func (s *oracleScheduler) Executed() uint64 { return s.executed }

func (s *oracleScheduler) push(at int64, fn func()) *oracleEvent {
	s.seq++
	e := &oracleEvent{at: at, seq: s.seq, fn: fn, owner: s}
	heap.Push(&s.h, e)
	s.live++
	return e
}

func (s *oracleScheduler) after(d time.Duration, fn func()) timeutil.Timer {
	if d < 0 {
		d = 0
	}
	return &oracleTimer{s.push(s.now+int64(d), fn)}
}

func (s *oracleScheduler) at(t time.Time, fn func()) timeutil.Timer {
	rel := int64(t.Sub(s.epoch))
	if rel < s.now {
		rel = s.now
	}
	return &oracleTimer{s.push(rel, fn)}
}

func (s *oracleScheduler) afterArg(d time.Duration, fn func(any), arg any) {
	s.after(d, func() { fn(arg) })
}

// pop returns the earliest live event, discarding cancelled ones.
func (s *oracleScheduler) pop() *oracleEvent {
	for s.h.Len() > 0 {
		e := heap.Pop(&s.h).(*oracleEvent)
		if e.cancelled {
			e.done = true
			continue
		}
		return e
	}
	return nil
}

func (s *oracleScheduler) run(e *oracleEvent) {
	s.now = e.at
	s.executed++
	s.live--
	e.done = true
	e.fn()
}

func (s *oracleScheduler) Step() bool {
	e := s.pop()
	if e == nil {
		return false
	}
	s.run(e)
	return true
}

func (s *oracleScheduler) RunUntil(t time.Time) {
	rel := int64(t.Sub(s.epoch))
	for {
		e := s.pop()
		if e == nil {
			break
		}
		if e.at > rel {
			heap.Push(&s.h, e)
			break
		}
		s.run(e)
	}
	if s.now < rel {
		s.now = rel
	}
}

func (s *oracleScheduler) RunFor(d time.Duration) { s.RunUntil(s.Now().Add(d)) }

// schedTrace drives one scheduler through a deterministic randomized
// workload and records every observable: callback identity, the virtual
// time it ran at, every Stop and Reset result, and Len/Now/Executed
// snapshots. It also returns the peak number of pooled (afterArg) events
// pending at once, which is how many pooled events the scheduler had to
// create.
//
// With ties set, every delay lands on one of a handful of instants —
// now, or one of the next four millisecond marks — so most events share
// their at with others and the order rests on seq.
func schedTrace(s tracedScheduler, seed int64, ties bool) (trace []string, peakPooled int) {
	rng := rand.New(rand.NewSource(seed))
	record := func(id int) {
		trace = append(trace, fmt.Sprintf("%d@%d", id, s.Now().UnixNano()))
	}

	// timers holds every handle ever returned, including those of events
	// that have since run or been stopped, so a random pick exercises
	// Stop and Reset on pending, finished and already-stopped events.
	var timers []timeutil.Timer
	stopRandom := func(why string) {
		if len(timers) == 0 {
			return
		}
		j := rng.Intn(len(timers))
		trace = append(trace, fmt.Sprintf("%s stop %d=%v len=%d", why, j, timers[j].Stop(), s.Len()))
	}

	// Delays spanning six orders of magnitude: same-instant bursts (d=0),
	// sub-microsecond packet gaps, and multi-second protocol timers.
	randDelay := func() time.Duration {
		if ties {
			k := time.Duration(rng.Intn(5))
			if k == 0 {
				return 0
			}
			now := time.Duration(s.Now().UnixNano())
			return (now/time.Millisecond+k)*time.Millisecond - now
		}
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return time.Duration(rng.Int63n(int64(time.Microsecond)))
		case 2:
			return time.Duration(rng.Int63n(int64(10 * time.Second)))
		default:
			return time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
		}
	}

	// resetRandom re-arms a random handle: its callback will run (again).
	resetRandom := func(why string) {
		if len(timers) == 0 {
			return
		}
		j, d := rng.Intn(len(timers)), randDelay()
		trace = append(trace, fmt.Sprintf("%s reset %d=%v len=%d", why, j, timers[j].Reset(d), s.Len()))
	}

	// Every callback records itself; one in eight then stops a random
	// handle (possibly its own), one in eight schedules a follow-up, one
	// in eight resets a random handle and one in eight re-arms itself,
	// once, all from inside the run.
	const (
		actStop = iota
		actSchedule
		actReset
		actResetSelf
		actKinds = 8
	)
	pooled := 0
	var actions []int // by event id
	var own []int     // by event id: index into timers, -1 for pooled events
	var runs []int    // by event id: times the callback has run
	var schedule func(d time.Duration)
	run := func(eid int) {
		record(eid)
		runs[eid]++
		switch actions[eid] {
		case actStop:
			stopRandom("cb")
		case actSchedule:
			schedule(randDelay())
		case actReset:
			resetRandom("cb")
		case actResetSelf:
			if own[eid] >= 0 && runs[eid] == 1 {
				trace = append(trace, fmt.Sprintf("self reset %d=%v len=%d", eid, timers[own[eid]].Reset(randDelay()), s.Len()))
			}
		}
	}
	schedule = func(d time.Duration) {
		eid := len(actions)
		actions = append(actions, rng.Intn(actKinds))
		own = append(own, len(timers))
		runs = append(runs, 0)
		// Mix the three scheduling surfaces: Schedule, ScheduleAt and the
		// pooled no-handle scheduleArg.
		switch rng.Intn(3) {
		case 0:
			timers = append(timers, s.after(d, func() { run(eid) }))
		case 1:
			timers = append(timers, s.at(s.Now().Add(d), func() { run(eid) }))
		default:
			own[eid] = -1
			pooled++
			peakPooled = max(peakPooled, pooled)
			s.afterArg(d, func(a any) { pooled--; run(a.(int)) }, eid)
		}
	}

	for round := 0; round < 200; round++ {
		for i, n := 0, rng.Intn(20); i < n; i++ {
			schedule(randDelay())
			switch rng.Intn(20) {
			case 0, 1:
				stopRandom("mid")
			case 2:
				resetRandom("mid")
			}
		}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			stopRandom("round")
		}
		switch rng.Intn(3) {
		case 0:
			for i, n := 0, rng.Intn(10); i < n; i++ {
				s.Step()
			}
		case 1:
			s.RunFor(time.Duration(rng.Int63n(int64(100 * time.Millisecond))))
		default:
			s.RunUntil(s.Now().Add(time.Duration(rng.Int63n(int64(time.Second)))))
		}
		trace = append(trace, fmt.Sprintf("now=%d exec=%d len=%d", s.Now().UnixNano(), s.Executed(), s.Len()))
	}
	for s.Step() {
	}
	trace = append(trace, fmt.Sprintf("final now=%d exec=%d len=%d", s.Now().UnixNano(), s.Executed(), s.Len()))
	return trace, peakPooled
}

func TestSchedulerMatchesSeedOracle(t *testing.T) {
	for _, mode := range []struct {
		name string
		ties bool
	}{{"spread", false}, {"ties", true}} {
		t.Run(mode.name, func(t *testing.T) {
			start := time.Unix(0, 0)
			for seed := int64(1); seed <= 20; seed++ {
				want, _ := schedTrace(&oracleScheduler{epoch: start}, seed, mode.ties)
				s := NewScheduler(start)
				got, peakPooled := schedTrace(liveScheduler{s}, seed, mode.ties)
				if len(want) != len(got) {
					t.Fatalf("seed %d: trace length %d (oracle) vs %d (scheduler)", seed, len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("seed %d: trace diverges at %d: oracle %q vs scheduler %q", seed, i, want[i], got[i])
					}
				}
				// Drained: nothing pending, and every pooled event the run
				// created is back on the free list.
				if s.Len() != 0 {
					t.Fatalf("seed %d: Len=%d after drain", seed, s.Len())
				}
				if len(s.free) != peakPooled {
					t.Fatalf("seed %d: %d pooled events on the free list after drain, want %d (peak pending)", seed, len(s.free), peakPooled)
				}
			}
		})
	}
}
