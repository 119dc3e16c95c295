// Package metrics provides the telemetry surface the evaluation needs:
// message/byte counters at the transport and a time-stamped membership
// event log, mirroring the Consul telemetry and log analysis used in the
// paper (§V-F).
package metrics

import (
	"sort"
	"sync"
	"time"
)

// Sink receives named counter increments. Implementations must be safe
// for concurrent use.
type Sink interface {
	// IncrCounter adds delta to the named counter.
	IncrCounter(name string, delta int64)
}

// Counter names emitted by the protocol core and transports.
const (
	// CounterMsgsSent counts compound packets sent (a packet with
	// piggybacked gossip counts once, as in the paper's Msgs Sent).
	CounterMsgsSent = "msgs_sent"

	// CounterBytesSent counts payload bytes sent.
	CounterBytesSent = "bytes_sent"

	// CounterMsgsDropped counts packets dropped by the network (loss or
	// receiver queue overflow).
	CounterMsgsDropped = "msgs_dropped"

	// CounterProbes counts probe rounds started.
	CounterProbes = "probes"

	// CounterProbeFailures counts probe rounds that ended with no ack.
	CounterProbeFailures = "probe_failures"

	// CounterRefutes counts refutations of suspicion/death about self.
	CounterRefutes = "refutes"

	// CounterSuspicionsRaised counts suspicions started locally.
	CounterSuspicionsRaised = "suspicions_raised"

	// CounterSuspicionsRefuted counts suspicions cleared by an alive.
	CounterSuspicionsRefuted = "suspicions_refuted"
)

// NopSink discards all increments.
type NopSink struct{}

var _ Sink = NopSink{}

// IncrCounter implements Sink.
func (NopSink) IncrCounter(string, int64) {}

// MemSink accumulates counters in memory.
type MemSink struct {
	mu       sync.Mutex
	counters map[string]int64
}

var _ Sink = (*MemSink)(nil)

// NewMemSink returns an empty in-memory sink.
func NewMemSink() *MemSink {
	return &MemSink{counters: make(map[string]int64)}
}

// IncrCounter implements Sink.
func (s *MemSink) IncrCounter(name string, delta int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters[name] += delta
}

// Get returns the current value of the named counter.
func (s *MemSink) Get(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Snapshot returns a copy of all counters.
func (s *MemSink) Snapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		out[k] = v
	}
	return out
}

// EventType classifies membership events observed at a member.
type EventType uint8

// Membership event types.
const (
	// EventJoin is a member becoming alive in the observer's view
	// (initial join or recovery from dead).
	EventJoin EventType = iota + 1

	// EventSuspect is a member entering the suspected state.
	EventSuspect

	// EventDead is a member being declared dead — the paper's "failure
	// event", the unit in which false positives are counted.
	EventDead

	// EventAlive is a suspicion being refuted: the suspected member
	// proved itself alive (suspect → alive) without having been
	// declared dead. Refutation latency is computed from
	// suspect/alive event pairs.
	EventAlive
)

// String returns a short name for the event type.
func (t EventType) String() string {
	switch t {
	case EventJoin:
		return "join"
	case EventSuspect:
		return "suspect"
	case EventDead:
		return "dead"
	case EventAlive:
		return "alive"
	default:
		return "unknown"
	}
}

// Event is one membership state change observed at one member.
type Event struct {
	// Time is when the observer processed the change.
	Time time.Time

	// Observer is the member at which the event was raised.
	Observer string

	// Subject is the member the event is about.
	Subject string

	// Type is the kind of state change.
	Type EventType

	// Incarnation is the subject's incarnation at the time of the event.
	Incarnation uint64
}

// EventLog records membership events from many observers.
//
// The log stores each event as a 32-byte record with no pointers —
// nanoseconds since the Unix epoch, incarnation, observer and subject as
// indexes into the log's name table, and type — in fixed-size chunks,
// so the collector never scans it and growth never copies it.
//
// EventLog is safe for concurrent use.
type EventLog struct {
	mu     sync.Mutex
	chunks [][]record
	n      int
	names  []string          // name table: index → name
	index  map[string]uint32 // name table: name → index
}

// record is one Event as the log stores it.
type record struct {
	unixNano    int64
	incarnation uint64
	observer    uint32
	subject     uint32
	typ         EventType
}

// chunkLen is the number of records per chunk (32 KiB).
const chunkLen = 1024

// NewEventLog returns an empty, unbounded event log.
func NewEventLog() *EventLog {
	return &EventLog{}
}

// Append records an event. Its Time must lie within the int64
// nanosecond range around the Unix epoch (years 1678 to 2262).
func (l *EventLog) Append(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n%chunkLen == 0 {
		l.chunks = append(l.chunks, make([]record, 0, chunkLen))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, record{
		unixNano:    ev.Time.UnixNano(),
		incarnation: ev.Incarnation,
		observer:    l.nameIndex(ev.Observer),
		subject:     l.nameIndex(ev.Subject),
		typ:         ev.Type,
	})
	l.n++
}

// nameIndex returns name's index in the name table, adding it if new.
func (l *EventLog) nameIndex(name string) uint32 {
	if i, ok := l.index[name]; ok {
		return i
	}
	if l.index == nil {
		l.index = make(map[string]uint32)
	}
	i := uint32(len(l.names))
	l.names = append(l.names, name)
	l.index[name] = i
	return i
}

// Len returns the number of recorded events.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Events returns a copy of all recorded events, ordered by time (stably:
// events at the same instant keep their append order).
//
// Each Time is rebuilt with time.Unix from its nanoseconds since the
// Unix epoch, so it has no monotonic clock reading and its location is
// time.Local. A time on a simulator clock — an epoch from time.Unix plus
// virtual offsets — therefore comes back equal under == to the one
// appended; a time.Now() reading comes back Equal to it, but not ==.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	for _, chunk := range l.chunks {
		for _, r := range chunk {
			out = append(out, Event{
				Time:        time.Unix(0, r.unixNano),
				Observer:    l.names[r.observer],
				Subject:     l.names[r.subject],
				Type:        r.typ,
				Incarnation: r.incarnation,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// Reset clears the log, its name table included.
func (l *EventLog) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.chunks, l.n, l.names, l.index = nil, 0, nil, nil
}
