package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lifeguard/internal/core"
	"lifeguard/internal/metrics"
	"lifeguard/internal/timeutil"
)

// The tracer measures layers from outside: the benchmark wraps the
// seams the core already exposes (Transport, Clock, the packet handler,
// EventDelegate, metrics.Sink) and records one span per call. Spans
// nest on a stack, so a layer's self time is its total minus the time
// its children covered. Nothing inside the repository's packages is
// instrumented.

// layer identifies what a span measures.
type layer uint8

const (
	layerInbound  layer = iota // packet handler: decode + core under Node.mu
	layerTimers                // clock callbacks (probe, gossip, suspicion, push-pull ticks) and wake-ups
	layerAPI                   // driver calls into the node (Start, Join)
	layerSend                  // Transport.SendPacket, unreliable
	layerFanout                // FanoutTransport.SendPacketFanout
	layerReliable              // Transport.SendPacket, reliable
	layerMetrics               // metrics.Sink and EventDelegate calls
	numLayers
)

var layerNames = [numLayers]string{"core.inbound", "core.timers", "core.api", "send", "send.fanout", "send.reliable", "metrics"}

// layerStat aggregates one layer's spans.
type layerStat struct {
	calls int64
	total time.Duration
	self  time.Duration
}

// rawSpan is one sampled span as written to the trace file.
type rawSpan struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // id of the enclosing span, -1 for a root
	Layer   string `json:"layer"`
	Node    string `json:"node"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	DurNs   int64  `json:"dur_ns"`
}

// Raw span sampling: every span with an id below sampleDense, then one
// id in sampleStride, at most sampleCap per stack. Aggregates always
// cover every span; the sample is for reading individual call trees.
const (
	sampleDense  = 4096
	sampleStride = 257
	sampleCap    = 8192
)

// tracer owns the stacks of one traced repetition.
type tracer struct {
	base   time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	stacks []*spanStack
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// frame is one open span.
type frame struct {
	id       int64
	layer    layer
	start    time.Duration
	children time.Duration
}

// spanStack is one sequential context that spans nest in. The simulator
// is single-threaded and uses one stack for the whole cluster. Real
// agents use one stack per member: a root span (handler, timer
// callback, API call) holds rootMu for its whole duration, so the sends
// and sink calls the core makes synchronously beneath it always find
// their parent on top of the stack, and the stack's own state needs no
// further locking.
type spanStack struct {
	tr     *tracer
	node   string
	rootMu sync.Mutex

	frames    []frame
	stats     [numLayers]layerStat
	rootTotal time.Duration // total of the spans that had no parent
	samples   []rawSpan

	// Gauges sampled by the wrappers that own them.
	pendingMax  int
	queueLenMax int
}

func (t *tracer) newStack(node string) *spanStack {
	s := &spanStack{tr: t, node: node}
	t.mu.Lock()
	t.stacks = append(t.stacks, s)
	t.mu.Unlock()
	return s
}

// beginRoot opens a root span, serialized with the stack's other
// roots; endRoot closes it.
func (s *spanStack) beginRoot(l layer) {
	s.rootMu.Lock()
	s.push(l)
}

func (s *spanStack) endRoot() {
	s.pop()
	s.rootMu.Unlock()
}

func (s *spanStack) push(l layer) {
	s.frames = append(s.frames, frame{id: s.tr.nextID.Add(1) - 1, layer: l, start: time.Since(s.tr.base)})
}

func (s *spanStack) pop() {
	end := time.Since(s.tr.base)
	top := len(s.frames) - 1
	f := s.frames[top]
	s.frames = s.frames[:top]
	dur := end - f.start
	parent := int64(-1)
	if top > 0 {
		s.frames[top-1].children += dur
		parent = s.frames[top-1].id
	} else {
		s.rootTotal += dur
	}
	st := &s.stats[f.layer]
	st.calls++
	st.total += dur
	st.self += dur - f.children
	if f.id < sampleDense || (f.id%sampleStride == 0 && len(s.samples) < sampleCap) {
		s.samples = append(s.samples, rawSpan{
			ID: f.id, Parent: parent, Layer: layerNames[f.layer], Node: s.node,
			StartNs: int64(f.start), DurNs: int64(dur),
		})
	}
}

// mark zeroes every stack's aggregates and gauges, so that totals covers
// only what runs after it: the measured phase, not the set-up.
func (t *tracer) mark() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.stacks {
		s.rootMu.Lock()
		s.stats = [numLayers]layerStat{}
		s.rootTotal, s.pendingMax, s.queueLenMax = 0, 0, 0
		s.rootMu.Unlock()
	}
}

// totals merges every stack's aggregates since mark.
func (t *tracer) totals() (stats [numLayers]layerStat, rootTotal time.Duration, pendingMax, queueLenMax int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.stacks {
		s.rootMu.Lock()
		for l := range stats {
			stats[l].calls += s.stats[l].calls
			stats[l].total += s.stats[l].total
			stats[l].self += s.stats[l].self
		}
		rootTotal += s.rootTotal
		pendingMax = max(pendingMax, s.pendingMax)
		queueLenMax = max(queueLenMax, s.queueLenMax)
		s.rootMu.Unlock()
	}
	return stats, rootTotal, pendingMax, queueLenMax
}

// writeSamples writes the sampled raw spans as JSON lines.
func (t *tracer) writeSamples(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.stacks {
		s.rootMu.Lock()
		for i := range s.samples {
			if err = enc.Encode(&s.samples[i]); err != nil {
				break
			}
		}
		s.rootMu.Unlock()
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace sample %s: %w", path, err)
	}
	return nil
}

// tracedTransport wraps a member's Transport with send spans.
type tracedTransport struct {
	inner core.Transport
	st    *spanStack
}

func (t *tracedTransport) LocalAddr() string { return t.inner.LocalAddr() }

func (t *tracedTransport) SendPacket(addr string, payload []byte, reliable bool) error {
	l := layerSend
	if reliable {
		l = layerReliable
	}
	t.st.push(l)
	defer t.st.pop()
	return t.inner.SendPacket(addr, payload, reliable)
}

// tracedFanoutTransport adds the fan-out extension, so a core wired to
// it takes the same shared-payload gossip path as on the bare
// simulator port.
type tracedFanoutTransport struct {
	tracedTransport
	fanout core.FanoutTransport
}

func (t *tracedFanoutTransport) SendPacketFanout(addrs []string, payload []byte, reliable bool) error {
	t.st.push(layerFanout)
	defer t.st.pop()
	return t.fanout.SendPacketFanout(addrs, payload, reliable)
}

// tracedClock wraps timer callbacks in root spans. Now is passed
// through untimed: it is a field read on the simulator and a vDSO call
// on the real clock, cheaper than the span that would measure it.
type tracedClock struct {
	inner timeutil.Clock
	st    *spanStack
}

func (c *tracedClock) Now() time.Time { return c.inner.Now() }

func (c *tracedClock) AfterFunc(d time.Duration, f func()) timeutil.Timer {
	return c.inner.AfterFunc(d, func() {
		c.st.beginRoot(layerTimers)
		f()
		c.st.endRoot()
	})
}

// tracedSink wraps counter increments.
type tracedSink struct {
	inner metrics.Sink
	st    *spanStack
}

func (s *tracedSink) IncrCounter(name string, delta int64) {
	s.st.push(layerMetrics)
	s.inner.IncrCounter(name, delta)
	s.st.pop()
}

// tracedEvents wraps membership notifications.
type tracedEvents struct {
	inner core.EventDelegate
	st    *spanStack
}

func (e *tracedEvents) notify(f func(core.Member), m core.Member) {
	e.st.push(layerMetrics)
	f(m)
	e.st.pop()
}

func (e *tracedEvents) NotifyJoin(m core.Member)    { e.notify(e.inner.NotifyJoin, m) }
func (e *tracedEvents) NotifySuspect(m core.Member) { e.notify(e.inner.NotifySuspect, m) }
func (e *tracedEvents) NotifyAlive(m core.Member)   { e.notify(e.inner.NotifyAlive, m) }
func (e *tracedEvents) NotifyDead(m core.Member)    { e.notify(e.inner.NotifyDead, m) }
func (e *tracedEvents) NotifyUpdate(m core.Member)  { e.notify(e.inner.NotifyUpdate, m) }

// layerValues turns the merged span aggregates into the per-layer
// metrics they back: span durations into times, span counts and the
// gauges sampled beside them into counts (on the simulator those are
// the seed's, not the host's). sim selects which transport family the
// send spans belong to. It returns the summed self time of all spans
// and the summed total of the root spans; the two are equal when every
// nested span was charged to the right parent.
func layerValues(t *tracer, sim bool, times, counts map[string]float64) (selfSum, rootTotal time.Duration) {
	stats, rootTotal, pendingMax, queueLenMax := t.totals()
	perCall := func(st layerStat) float64 {
		if st.calls == 0 {
			return 0
		}
		return float64(st.self) / float64(st.calls)
	}
	counts["core.inbound.calls"] = float64(stats[layerInbound].calls)
	times["core.inbound.self_s"] = stats[layerInbound].self.Seconds()
	times["core.inbound.ns_per_pkt"] = perCall(stats[layerInbound])
	counts["core.timers.calls"] = float64(stats[layerTimers].calls)
	times["core.timers.self_s"] = stats[layerTimers].self.Seconds()
	times["core.timers.ns_per_call"] = perCall(stats[layerTimers])
	counts["core.api.calls"] = float64(stats[layerAPI].calls)
	times["core.api.self_s"] = stats[layerAPI].self.Seconds()
	counts["metrics.calls"] = float64(stats[layerMetrics].calls)
	times["metrics.self_s"] = stats[layerMetrics].self.Seconds()

	sendCalls := stats[layerSend].calls + stats[layerReliable].calls
	sendSelf := stats[layerSend].self + stats[layerReliable].self + stats[layerFanout].self
	if sim {
		counts["sim.net.send_calls"] = float64(sendCalls)
		counts["sim.net.fanout_calls"] = float64(stats[layerFanout].calls)
		times["sim.net.send_self_s"] = sendSelf.Seconds()
		counts["sim.sched.pending_max"] = float64(pendingMax)
		counts["sim.net.queue_len_max"] = float64(queueLenMax)
	} else {
		counts["nettrans.send_calls"] = float64(sendCalls)
		times["nettrans.send_self_s"] = sendSelf.Seconds()
		times["nettrans.udp_send_ns"] = perCall(stats[layerSend])
		counts["nettrans.reliable_sends"] = float64(stats[layerReliable].calls)
		times["nettrans.reliable_send_ns"] = perCall(stats[layerReliable])
	}
	for _, st := range stats {
		selfSum += st.self
	}
	return selfSum, rootTotal
}
