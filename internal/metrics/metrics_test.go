package metrics

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestMemSinkCounters(t *testing.T) {
	s := NewMemSink()
	s.IncrCounter(CounterProbes, 3)
	s.IncrCounter(CounterProbes, 4)
	s.IncrCounter(CounterProbeFailures, 100)
	if got := s.Get(CounterProbes); got != 7 {
		t.Errorf("probes = %d", got)
	}
	if got := s.Get("absent"); got != 0 {
		t.Errorf("absent counter = %d", got)
	}
	snap := s.Snapshot()
	if len(snap) != 2 || snap[CounterProbeFailures] != 100 {
		t.Errorf("snapshot = %v", snap)
	}
	// Snapshot is a copy.
	snap[CounterProbeFailures] = 0
	if got := s.Get(CounterProbeFailures); got != 100 {
		t.Error("snapshot aliases the sink")
	}
}

func TestMemSinkConcurrent(t *testing.T) {
	s := NewMemSink()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.IncrCounter("c", 1)
			}
		}()
	}
	wg.Wait()
	if got := s.Get("c"); got != 8000 {
		t.Errorf("c = %d, want 8000", got)
	}
}

func TestEventLogOrdering(t *testing.T) {
	l := NewEventLog()
	base := time.Unix(100, 0)
	// Append out of order; Events must sort by time, stably.
	l.Append(Event{Time: base.Add(2 * time.Second), Observer: "b", Subject: "x", Type: EventDead})
	l.Append(Event{Time: base, Observer: "a", Subject: "x", Type: EventSuspect})
	l.Append(Event{Time: base.Add(2 * time.Second), Observer: "c", Subject: "x", Type: EventDead})

	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].Observer != "a" {
		t.Errorf("first event from %s", evs[0].Observer)
	}
	// Stable: b before c at the same instant.
	if evs[1].Observer != "b" || evs[2].Observer != "c" {
		t.Errorf("same-time order: %s, %s", evs[1].Observer, evs[2].Observer)
	}
}

func TestEventLogCopyAndReset(t *testing.T) {
	l := NewEventLog()
	l.Append(Event{Observer: "a"})
	evs := l.Events()
	evs[0].Observer = "mutated"
	if l.Events()[0].Observer != "a" {
		t.Error("Events returned aliased storage")
	}
	if l.Len() != 1 {
		t.Errorf("len = %d", l.Len())
	}
	l.Reset()
	if l.Len() != 0 {
		t.Error("reset did not clear")
	}
}

func TestEventLogConcurrentAppend(t *testing.T) {
	l := NewEventLog()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				l.Append(Event{Observer: "o", Type: EventJoin})
			}
		}()
	}
	wg.Wait()
	if got := l.Len(); got != 2000 {
		t.Errorf("len = %d", got)
	}
}

// TestEventLogRoundTrip: Events returns exactly what was appended. For
// simulator-clock times (a time.Unix epoch plus virtual offsets) every
// field, Time included, is equal under ==, across several chunk
// boundaries; a time.Now() reading loses its monotonic part and comes
// back Equal.
func TestEventLogRoundTrip(t *testing.T) {
	l := NewEventLog()
	epoch := time.Unix(0, 0)
	names := []string{"node-000", "node-001", "node-002", "node-003", "node-004"}
	var want []Event
	for i := 0; i < 3*chunkLen+17; i++ {
		ev := Event{
			Time:        epoch.Add(time.Duration(i) * 1234567 * time.Nanosecond),
			Observer:    names[i%len(names)],
			Subject:     names[(i*7+3)%len(names)],
			Type:        EventType(1 + i%4),
			Incarnation: uint64(i) << 20,
		}
		want = append(want, ev)
		l.Append(ev)
	}
	got := l.Events()
	if len(got) != len(want) {
		t.Fatalf("%d events back, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	l.Reset()
	now := time.Now()
	l.Append(Event{Time: now, Observer: "a", Subject: "b", Type: EventDead, Incarnation: 9})
	ev := l.Events()[0]
	if !ev.Time.Equal(now) || ev.Observer != "a" || ev.Subject != "b" || ev.Type != EventDead || ev.Incarnation != 9 {
		t.Fatalf("wall-clock event = %+v, want time Equal to %v", ev, now)
	}
}

// TestEventLogAppendAllocs: once its names are known, appending costs one
// chunk allocation per chunkLen events and nothing else, and a stored
// record is 32 bytes.
func TestEventLogAppendAllocs(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size != 32 {
		t.Fatalf("record is %d bytes, want 32", size)
	}
	l := NewEventLog()
	ev := Event{Time: time.Unix(0, 0), Observer: "node-000", Subject: "node-001", Type: EventJoin}
	l.Append(ev)
	for i := 1; i < chunkLen; i++ { // fill the first chunk
		l.Append(ev)
	}
	allocs := testing.AllocsPerRun(8, func() {
		for i := 0; i < chunkLen; i++ {
			ev.Time = ev.Time.Add(time.Millisecond)
			l.Append(ev)
		}
	})
	// Each run opens one chunk; the chunk index grows by doubling, which
	// rounds away over the runs.
	if allocs > 1 {
		t.Fatalf("%d appends allocate %.0f times, want 1 (the chunk)", chunkLen, allocs)
	}
}

func TestEventTypeString(t *testing.T) {
	cases := map[EventType]string{
		EventJoin:     "join",
		EventSuspect:  "suspect",
		EventDead:     "dead",
		EventAlive:    "alive",
		EventType(99): "unknown",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}
