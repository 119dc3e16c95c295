package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	var order []int
	s.Schedule(3*time.Second, func() { order = append(order, 3) })
	s.Schedule(1*time.Second, func() { order = append(order, 1) })
	s.Schedule(2*time.Second, func() { order = append(order, 2) })
	s.RunFor(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if got := s.Now(); !got.Equal(time.Unix(10, 0)) {
		t.Errorf("now = %v, want t+10s", got)
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { order = append(order, i) })
	}
	s.RunFor(2 * time.Second)
	for i, got := range order {
		if got != i {
			t.Fatalf("same-instant order = %v", order)
		}
	}
}

func TestSchedulerNegativeDelayClamps(t *testing.T) {
	s := NewScheduler(time.Unix(100, 0))
	ran := false
	s.Schedule(-time.Hour, func() { ran = true })
	s.Step()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if got := s.Now(); !got.Equal(time.Unix(100, 0)) {
		t.Errorf("time moved backwards: %v", got)
	}
}

func TestSchedulerStopCancels(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	ran := false
	e := s.Schedule(time.Second, func() { ran = true })
	if !e.Stop() {
		t.Fatal("Stop on pending event returned false")
	}
	if e.Stop() {
		t.Error("second Stop returned true")
	}
	s.RunFor(5 * time.Second)
	if ran {
		t.Error("cancelled event ran")
	}
}

// lessFields is the two-field (at, seq) order, compared field by field:
// the reference before must agree with.
func lessFields(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// TestSchedulerBeforeMatchesFields checks the borrow compare against
// the field-by-field order at the edges of both halves of the key —
// equal at with adjacent seq, at one apart with seq reversed, at of 0
// and math.MaxInt64, seq of 0 and math.MaxUint64 — and then on random
// keys biased towards those edges.
func TestSchedulerBeforeMatchesFields(t *testing.T) {
	const maxAt, maxSeq = math.MaxInt64, math.MaxUint64
	cases := []struct{ a, b entry }{
		{entry{at: 5, seq: 7}, entry{at: 5, seq: 8}},
		{entry{at: 5, seq: 7}, entry{at: 5, seq: 7}},
		{entry{at: 5, seq: 9}, entry{at: 6, seq: 8}},
		{entry{at: 0, seq: maxSeq}, entry{at: 1, seq: 0}},
		{entry{at: 0, seq: 0}, entry{at: 0, seq: 1}},
		{entry{at: 0, seq: 0}, entry{at: maxAt, seq: 0}},
		{entry{at: maxAt, seq: 0}, entry{at: maxAt, seq: maxSeq}},
		{entry{at: maxAt - 1, seq: maxSeq}, entry{at: maxAt, seq: 0}},
		{entry{at: maxAt, seq: maxSeq - 1}, entry{at: maxAt, seq: maxSeq}},
		{entry{at: 0, seq: maxSeq}, entry{at: maxAt, seq: 0}},
	}
	for _, c := range cases {
		for _, p := range [][2]entry{{c.a, c.b}, {c.b, c.a}} {
			want := uint64(0)
			if lessFields(p[0], p[1]) {
				want = 1
			}
			if got := before(&p[0], &p[1]); got != want {
				t.Errorf("before(%d:%d, %d:%d) = %d, want %d", p[0].at, p[0].seq, p[1].at, p[1].seq, got, want)
			}
		}
	}

	edgeAt := []int64{0, 1, maxAt - 1, maxAt}
	edgeSeq := []uint64{0, 1, maxSeq - 1, maxSeq}
	// pick's low bits choose how b relates to a: an edge value, a's own
	// value, or one more or one less than it; otherwise b is random.
	key := func(at int64, seq uint64, pick uint8, a entry) entry {
		e := entry{at: at & maxAt, seq: seq}
		switch pick % 8 {
		case 0:
			e.at = edgeAt[pick/8%4]
		case 1:
			e.at = a.at
		case 2:
			e.at = a.at
			if a.at < maxAt {
				e.at++
			}
		}
		switch pick / 32 % 8 {
		case 0:
			e.seq = edgeSeq[pick/8%4]
		case 1:
			e.seq = a.seq
		case 2:
			e.seq = a.seq + 1
		case 3:
			e.seq = a.seq - 1
		}
		return e
	}
	agree := func(atA, atB int64, seqA, seqB uint64, pickA, pickB uint8) bool {
		a := key(atA, seqA, pickA, entry{})
		b := key(atB, seqB, pickB, a)
		want := uint64(0)
		if lessFields(a, b) {
			want = 1
		}
		return before(&a, &b) == want
	}
	if err := quick.Check(agree, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerPartialLastGroup fills the queue to every size from 1 to
// 41, so the last parent's group of children is full, or holds one,
// two or three, and pops it empty, checking the heap after every pop
// and the (at, seq) order of the run. Delays collide often, so seq
// decides many of the compares.
func TestSchedulerPartialLastGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 41; n++ {
		s := NewScheduler(time.Unix(0, 0))
		var ran []int
		delays := make([]time.Duration, n)
		for i := range delays {
			i := i
			delays[i] = time.Duration(rng.Intn(4)) * time.Millisecond
			s.Schedule(delays[i], func() { ran = append(ran, i) })
		}
		checkHeap(t, s)
		for s.Step() {
			checkHeap(t, s)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return delays[want[a]] < delays[want[b]] })
		if fmt.Sprint(ran) != fmt.Sprint(want) {
			t.Fatalf("%d events ran in order %v, want %v", n, ran, want)
		}
	}
}

// TestSchedulerHugeDelaySaturates schedules with a delay that would
// carry virtual time past math.MaxInt64 ns, through Schedule, Reset and
// a pooled event: each saturates at the end of time, so it runs after
// an ordinary event and the clock never wraps negative.
func TestSchedulerHugeDelaySaturates(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewScheduler(start)
	s.RunFor(time.Millisecond)
	huge := time.Duration(math.MaxInt64)
	var order []string
	s.Schedule(huge, func() { order = append(order, "schedule") })
	e := s.Schedule(time.Second, func() { order = append(order, "reset") })
	e.Reset(huge)
	s.scheduleArg(huge, func(any) { order = append(order, "pooled") }, nil)
	s.Schedule(time.Hour, func() { order = append(order, "hour") })
	checkHeap(t, s)

	s.Step()
	if got := s.Now().Sub(start); fmt.Sprint(order) != "[hour]" || got != time.Hour+time.Millisecond {
		t.Fatalf("first event: ran %v at %v, want [hour] at 1h0m0.001s", order, got)
	}
	for s.Step() {
	}
	if fmt.Sprint(order) != "[hour schedule reset pooled]" {
		t.Fatalf("ran %v, want [hour schedule reset pooled]", order)
	}
	if got := s.Now().Sub(start); got != huge {
		t.Fatalf("clock reads %v after the saturated events, want %v", got, huge)
	}
	s.Schedule(time.Second, func() { order = append(order, "after") })
	s.Step()
	if got := s.Now().Sub(start); got != huge || len(order) != 5 {
		t.Fatalf("an event scheduled at the end of time ran at %v (%d ran), want %v", got, len(order), huge)
	}
}

// checkHeap asserts the queue's structural invariants: every parent
// orders before its children, and every pending event points back at its
// own slot and at the scheduler.
func checkHeap(t *testing.T, s *Scheduler) {
	t.Helper()
	for i, x := range s.heap {
		if i > 0 && before(&x, &s.heap[(i-1)/heapArity]) == 1 {
			t.Fatalf("heap order broken: slot %d orders before its parent", i)
		}
		if x.ev.index != i {
			t.Fatalf("slot %d holds an event with index %d", i, x.ev.index)
		}
		if x.ev.fn != nil && x.ev.sched != s {
			t.Fatalf("slot %d holds a cancellable event not marked pending", i)
		}
	}
}

// TestSchedulerStopRemovesImmediately stops every pending event and
// checks each Stop takes its event out of the queue then and there: Len
// counts live events only, nothing stopped runs, and a drained-by-Stop
// queue reports no work.
func TestSchedulerStopRemovesImmediately(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	ran := 0
	var evs []*Event
	for i := 0; i < 100; i++ {
		evs = append(evs, s.Schedule(time.Duration(i)*time.Millisecond, func() { ran++ }))
	}
	for i, e := range evs {
		if !e.Stop() {
			t.Fatal("Stop on a pending event reported false")
		}
		if want := len(evs) - i - 1; s.Len() != want {
			t.Fatalf("Len=%d after %d stops, want %d", s.Len(), i+1, want)
		}
		checkHeap(t, s)
	}
	for _, e := range evs {
		if e.Stop() {
			t.Fatal("second Stop reported true")
		}
	}
	if s.Step() {
		t.Fatal("Step on a queue emptied by Stop reported work")
	}
	s.RunFor(time.Second)
	if ran != 0 {
		t.Fatalf("%d stopped events ran", ran)
	}
}

// TestSchedulerStopBySlot stops the event sitting in a chosen heap slot
// — the root, the last slot, a middle slot — and checks the rest still
// run in (at, seq) order.
func TestSchedulerStopBySlot(t *testing.T) {
	const n = 64
	slots := map[string]int{"root": 0, "last": n - 1, "middle": n / 2}
	for name, slot := range slots {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(slot)))
			s := NewScheduler(time.Unix(0, 0))
			var ran []int
			delays := make([]time.Duration, n)
			byEvent := make(map[*Event]int, n)
			for i := range delays {
				i := i
				delays[i] = time.Duration(rng.Int63n(int64(time.Second)))
				byEvent[s.Schedule(delays[i], func() { ran = append(ran, i) })] = i
			}
			victim := s.heap[slot].ev
			if !victim.Stop() {
				t.Fatal("Stop on a pending event reported false")
			}
			if s.Len() != n-1 {
				t.Fatalf("Len=%d after one Stop, want %d", s.Len(), n-1)
			}
			checkHeap(t, s)
			for s.Step() {
			}

			var want []int
			for i := range delays {
				if i != byEvent[victim] {
					want = append(want, i)
				}
			}
			sort.SliceStable(want, func(a, b int) bool { return delays[want[a]] < delays[want[b]] })
			if fmt.Sprint(ran) != fmt.Sprint(want) {
				t.Fatalf("run order after stopping slot %d:\n got %v\nwant %v", slot, ran, want)
			}
		})
	}
}

// TestSchedulerStopFromCallback stops, from inside a running callback,
// an event due at the same instant (it must not run, and Len drops at
// once) and the running event itself (already off the queue: false).
func TestSchedulerStopFromCallback(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	var order []string
	var self, sibling *Event
	self = s.Schedule(time.Second, func() {
		order = append(order, "first")
		if self.Stop() {
			t.Error("Stop from inside the event's own callback reported true")
		}
		before := s.Len()
		if !sibling.Stop() {
			t.Error("Stop on a same-instant pending event reported false")
		}
		if s.Len() != before-1 {
			t.Errorf("Len %d -> %d across Stop, want a drop of one", before, s.Len())
		}
	})
	sibling = s.Schedule(time.Second, func() { order = append(order, "sibling") })
	s.Schedule(time.Second, func() { order = append(order, "last") })
	s.RunFor(2 * time.Second)
	if fmt.Sprint(order) != "[first last]" {
		t.Fatalf("ran %v, want [first last]", order)
	}
}

// TestSchedulerPooledEventsRecycled drives pooled events that schedule
// further pooled events from their callbacks and checks, once drained,
// that the free list holds every pooled event ever created — here the
// initial burst, since each callback reuses the event it ran on.
func TestSchedulerPooledEventsRecycled(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	const burst, hops = 32, 10
	ran := 0
	var hop func(any)
	hop = func(a any) {
		ran++
		if left := a.(int); left > 0 {
			s.scheduleArg(time.Millisecond, hop, left-1)
		}
	}
	for i := 0; i < burst; i++ {
		s.scheduleArg(time.Duration(i)*time.Microsecond, hop, hops)
	}
	for s.Step() {
	}
	if want := burst * (hops + 1); ran != want {
		t.Fatalf("ran %d pooled callbacks, want %d", ran, want)
	}
	if s.Len() != 0 || len(s.free) != burst {
		t.Fatalf("after drain: Len=%d, %d events on the free list; want 0 and %d", s.Len(), len(s.free), burst)
	}
	for _, e := range s.free {
		if e.fnArg != nil || e.arg != nil {
			t.Fatal("recycled event still references its callback or argument")
		}
	}
}

// TestSchedulerZeroDelayBurst piles many same-instant events into the
// queue and checks strict FIFO order.
func TestSchedulerZeroDelayBurst(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	var got []int
	for i := 0; i < 500; i++ {
		i := i
		s.Schedule(0, func() { got = append(got, i) })
	}
	s.RunFor(time.Nanosecond)
	if len(got) != 500 {
		t.Fatalf("ran %d of 500 zero-delay events", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("zero-delay order broken at %d: got %d", i, v)
		}
	}
}

// TestSchedulerFarFutureEvent schedules an event months ahead of a dense
// near-term workload: it must stay pending behind all of it, and run —
// with the clock jumping straight to it — once the horizon reaches it.
func TestSchedulerFarFutureEvent(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	var order []string
	s.Schedule(1000*time.Hour, func() { order = append(order, "far") })
	for i := 0; i < 200; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() { order = append(order, "near") })
	}
	s.RunFor(time.Second)
	if len(order) != 200 || order[0] != "near" {
		t.Fatalf("near-term events did not all run first: %d ran", len(order))
	}
	if s.Len() != 1 {
		t.Fatalf("far-future event missing from queue: Len=%d", s.Len())
	}
	s.RunFor(2000 * time.Hour)
	if len(order) != 201 || order[200] != "far" {
		t.Fatalf("far-future event did not run once the horizon reached it")
	}
	if got := s.Now().Sub(time.Unix(0, 0)); got < 1000*time.Hour {
		t.Fatalf("clock did not advance past the far event: %v", got)
	}
}

func TestSchedulerStopAfterRun(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	e := s.Schedule(time.Second, func() {})
	s.RunFor(2 * time.Second)
	if e.Stop() {
		t.Error("Stop after execution returned true")
	}
}

func TestSchedulerEventSchedulingEvents(t *testing.T) {
	// Events scheduled from within callbacks at the same RunUntil
	// horizon must execute in the same pass.
	s := NewScheduler(time.Unix(0, 0))
	var hits []time.Duration
	var chain func()
	chain = func() {
		hits = append(hits, s.Now().Sub(time.Unix(0, 0)))
		if len(hits) < 5 {
			s.Schedule(time.Second, chain)
		}
	}
	s.Schedule(time.Second, chain)
	s.RunFor(10 * time.Second)
	if len(hits) != 5 {
		t.Fatalf("chain ran %d times, want 5", len(hits))
	}
	for i, h := range hits {
		if want := time.Duration(i+1) * time.Second; h != want {
			t.Errorf("hit %d at %v, want %v", i, h, want)
		}
	}
}

func TestSchedulerRunUntilDoesNotOvershoot(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	ran := false
	s.Schedule(5*time.Second, func() { ran = true })
	s.RunFor(4 * time.Second)
	if ran {
		t.Fatal("event beyond horizon ran")
	}
	if s.Len() != 1 {
		t.Fatalf("pending = %d", s.Len())
	}
	s.RunFor(2 * time.Second)
	if !ran {
		t.Fatal("event within extended horizon did not run")
	}
}

func TestSchedulerZeroDelayFromCallbackRunsSamePass(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.Schedule(0, recurse)
		}
	}
	s.Schedule(0, recurse)
	s.RunFor(0)
	if depth != 100 {
		t.Fatalf("depth = %d, want 100 (zero-delay chain must drain)", depth)
	}
}

func TestSchedulerExecutedCount(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	for i := 0; i < 7; i++ {
		s.Schedule(time.Millisecond, func() {})
	}
	s.RunFor(time.Second)
	if got := s.Executed(); got != 7 {
		t.Fatalf("executed = %d, want 7", got)
	}
}

func TestQuickSchedulerNeverRunsOutOfOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler(time.Unix(0, 0))
		var times []time.Time
		for _, d := range delays {
			s.Schedule(time.Duration(d)*time.Millisecond, func() {
				times = append(times, s.Now())
			})
		}
		s.RunFor(100 * time.Second)
		for i := 1; i < len(times); i++ {
			if times[i].Before(times[i-1]) {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClockImplementsTimeutil(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	c := NewClock(s)
	fired := false
	timer := c.AfterFunc(time.Second, func() { fired = true })
	if got := c.Now(); !got.Equal(time.Unix(0, 0)) {
		t.Errorf("now = %v", got)
	}
	s.RunFor(500 * time.Millisecond)
	if fired {
		t.Fatal("fired early")
	}
	s.RunFor(time.Second)
	if !fired {
		t.Fatal("did not fire")
	}
	if timer.Stop() {
		t.Error("Stop after fire returned true")
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler(time.Unix(0, 0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 0 {
			for s.Step() {
			}
		}
	}
	for s.Step() {
	}
}

// benchPending are the standing backlogs the queue benchmarks run
// against: the pending-event range the benchmark workloads reach
// (sim.sched.pending_max of roughly 1k to 10k) plus 100k, the size of
// the benchmark's sim.sched.insert_pop_ns kernel.
var benchPending = []int{1_000, 10_000, 100_000}

// BenchmarkSchedulerInsertPop measures one schedule+pop cycle against a
// standing backlog of pending events. The uniform cases draw every
// delay at random within a second. The periodic cases are shaped like a
// fault-free cluster: each of n members keeps a 200 ms gossip, a 1 s
// probe and a 30 s push-pull timer, at random phases, and every timer
// re-arms itself from its own callback, so one op is one pop and one
// Reset against 3n pending events (0.9 k is the sim-steady workload's
// peak; 5 k and 8 k bracket sim-anomaly's and sim-large's).
func BenchmarkSchedulerInsertPop(b *testing.B) {
	for _, pending := range benchPending {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			s := NewScheduler(time.Unix(0, 0))
			fn := func(any) {}
			for i := 0; i < pending; i++ {
				s.scheduleArg(time.Duration(rng.Int63n(int64(time.Second))), fn, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.scheduleArg(time.Duration(rng.Int63n(int64(time.Second))), fn, nil)
				s.Step()
			}
		})
	}
	periods := []time.Duration{200 * time.Millisecond, time.Second, 30 * time.Second}
	for _, members := range []int{300, 1_700, 2_700} {
		b.Run(fmt.Sprintf("periodic/pending=%d", members*len(periods)), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			s := NewScheduler(time.Unix(0, 0))
			for i := 0; i < members; i++ {
				for _, period := range periods {
					var e *Event
					e = s.Schedule(time.Duration(rng.Int63n(int64(period))), func() { e.Reset(period) })
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkNetworkDeliver measures the full per-packet path — transmit,
// delay draw, delivery event, service event, handler — across a mesh of
// members, with a standing backlog of far-off timers behind the packet
// events the way protocol timers sit behind them in a cluster run.
func BenchmarkNetworkDeliver(b *testing.B) {
	for _, pending := range benchPending {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			sched := NewScheduler(time.Unix(0, 0))
			net := NewNetwork(sched, Options{Seed: 1})
			const members = 16
			ports := make([]*Port, members)
			received := 0
			for i := 0; i < members; i++ {
				name := fmt.Sprintf("m%d", i)
				p, err := net.Attach(name, func(string, []byte) { received++ })
				if err != nil {
					b.Fatal(err)
				}
				ports[i] = p
			}
			// The backlog sits beyond any horizon the loop below reaches,
			// so it stays pending for the whole measurement.
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < pending; i++ {
				sched.Schedule(1000*time.Hour+time.Duration(rng.Int63n(int64(time.Minute))), func() {})
			}
			payload := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := ports[i%members]
				dst := fmt.Sprintf("m%d", (i+1+i/members)%members)
				if err := src.SendPacket(dst, payload, false); err != nil {
					b.Fatal(err)
				}
				if i%64 == 63 {
					sched.RunFor(5 * time.Millisecond)
				}
			}
			sched.RunFor(time.Second)
			if received == 0 {
				b.Fatal("no packets delivered")
			}
		})
	}
}
