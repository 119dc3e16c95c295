package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"lifeguard/internal/bufpool"
)

type rig struct {
	sched *Scheduler
	net   *Network
}

func newRig(t *testing.T, opts Options) *rig {
	t.Helper()
	sched := NewScheduler(time.Unix(0, 0))
	return &rig{sched: sched, net: NewNetwork(sched, opts)}
}

// flatDelays replays the latency stream of a network seeded with seed:
// the k-th call returns the one-way delay of the network's k-th
// unreliable packet (TestFlatDelayDraws pins that order).
func flatDelays(seed int64) func() time.Duration {
	rng := rand.New(rand.NewSource(seed))
	return func() time.Duration { return flatDelay.sample(rng) }
}

// attach registers a member that records deliveries.
func (r *rig) attach(t *testing.T, name string) (*Port, *[]string) {
	t.Helper()
	var got []string
	p, err := r.net.Attach(name, func(from string, payload []byte) {
		got = append(got, from+":"+string(payload))
	})
	if err != nil {
		t.Fatal(err)
	}
	// The closure appends to the slice it captured; return a pointer to
	// observe it.
	return p, &got
}

// TestOptionsSurface pins Options' field set: the inbound queue's
// capacity and service time are constants, so a field is added only
// with a caller that sets it.
func TestOptionsSurface(t *testing.T) {
	want := []string{"Seed"}
	typ := reflect.TypeOf(Options{})
	got := make([]string, typ.NumField())
	for i := range got {
		got[i] = typ.Field(i).Name
	}
	if !slices.Equal(got, want) {
		t.Fatalf("a new Options field needs a non-test caller that sets it (docs/ARCHITECTURE.md, Contracts)\n got %d: %v\nwant %d: %v",
			len(got), got, len(want), want)
	}
}

func TestDeliveryBasics(t *testing.T) {
	r := newRig(t, Options{})
	a, _ := r.attach(t, "a")
	_, bGot := r.attach(t, "b")

	if err := a.SendPacket("b", []byte("hello"), false); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(time.Second)
	if len(*bGot) != 1 || (*bGot)[0] != "a:hello" {
		t.Fatalf("b got %v", *bGot)
	}

	stats := r.net.NodeStats("a")
	if stats.MsgsSent != 1 || stats.BytesSent != 5 {
		t.Errorf("a stats: %+v", stats)
	}
	if got := r.net.NodeStats("b"); got.MsgsDelivered != 1 {
		t.Errorf("b stats: %+v", got)
	}
}

func TestDeliveryLatencyWithinModel(t *testing.T) {
	r := newRig(t, Options{Seed: 3})
	a, _ := r.attach(t, "a")
	var at time.Time
	_, err := r.net.Attach("b", func(string, []byte) { at = r.sched.Now() })
	if err != nil {
		t.Fatal(err)
	}
	a.SendPacket("b", []byte("x"), false)
	r.sched.RunFor(time.Second)
	d := at.Sub(time.Unix(0, 0))
	// Latency plus one service interval.
	lo, hi := flatDelay.Base+serviceTime, flatDelay.Base+flatDelay.Jitter+serviceTime
	if d < lo || d >= hi {
		t.Errorf("delivery at %v, want within [%v, %v)", d, lo, hi)
	}
	if want := flatDelays(3)() + serviceTime; d != want {
		t.Errorf("delivery at %v, want the stream's first draw plus service, %v", d, want)
	}
}

func TestUnknownDestinationCountsSendOnly(t *testing.T) {
	r := newRig(t, Options{})
	a, _ := r.attach(t, "a")
	if err := a.SendPacket("ghost", []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(time.Second)
	if got := r.net.NodeStats("a").MsgsSent; got != 1 {
		t.Errorf("msgs sent = %d", got)
	}
}

func TestQueueCapTailDrop(t *testing.T) {
	// A gated member's queue fills; the newest packets are dropped. The
	// survivor set must be the oldest (tail drop) — this is what buries
	// a late refutation behind an early stale suspicion.
	const overflow = 3
	r := newRig(t, Options{})
	a, _ := r.attach(t, "a")
	_, bGot := r.attach(t, "b")

	r.net.SetGated("b", true)
	for i := 0; i < queueCap+overflow; i++ {
		a.SendPacket("b", []byte(fmt.Sprint(i)), false)
		r.sched.RunFor(10 * time.Millisecond) // deliver one at a time
	}
	if got := r.net.QueueLen("b"); got != queueCap {
		t.Fatalf("queue len = %d, want %d", got, queueCap)
	}
	if got := r.net.NodeStats("b").DropsOverflow; got != overflow {
		t.Fatalf("overflow drops = %d, want %d", got, overflow)
	}

	r.net.SetGated("b", false)
	r.sched.RunFor(time.Second)
	if len(*bGot) != queueCap {
		t.Fatalf("b got %d packets, want %d", len(*bGot), queueCap)
	}
	for i, got := range *bGot {
		if want := fmt.Sprintf("a:%d", i); got != want {
			t.Fatalf("packet %d = %q, want %q (oldest must survive)", i, got, want)
		}
	}
}

func TestGatedSendsHoldInOutbox(t *testing.T) {
	r := newRig(t, Options{})
	a, _ := r.attach(t, "a")
	_, bGot := r.attach(t, "b")

	r.net.SetGated("a", true)
	a.SendPacket("b", []byte("held"), false)
	r.sched.RunFor(time.Second)
	if len(*bGot) != 0 {
		t.Fatal("packet escaped a gated sender")
	}
	// Stats count at transmit time, not enqueue time.
	if got := r.net.NodeStats("a").MsgsSent; got != 0 {
		t.Errorf("gated sender already counted %d sends", got)
	}

	r.net.SetGated("a", false)
	r.sched.RunFor(time.Second)
	if len(*bGot) != 1 || (*bGot)[0] != "a:held" {
		t.Fatalf("b got %v after release", *bGot)
	}
	if got := r.net.NodeStats("a").MsgsSent; got != 1 {
		t.Errorf("sends after release = %d", got)
	}
}

func TestGatedProcessingPausesAndResumes(t *testing.T) {
	r := newRig(t, Options{})
	a, _ := r.attach(t, "a")
	_, bGot := r.attach(t, "b")

	r.net.SetGated("b", true)
	for i := 0; i < 5; i++ {
		a.SendPacket("b", []byte{byte('0' + i)}, false)
	}
	r.sched.RunFor(10 * time.Second)
	if len(*bGot) != 0 {
		t.Fatal("gated member processed packets")
	}
	if got := r.net.QueueLen("b"); got != 5 {
		t.Fatalf("queue len = %d", got)
	}

	r.net.SetGated("b", false)
	// Service rate: serviceTime per message → all 5 within ~6 of them.
	r.sched.RunFor(3 * serviceTime)
	if got := len(*bGot); got == 0 || got == 5 {
		t.Fatalf("drain not rate-limited: %d processed after %v", got, 3*serviceTime)
	}
	r.sched.RunFor(10 * serviceTime)
	if len(*bGot) != 5 {
		t.Fatalf("backlog not fully drained: %d", len(*bGot))
	}
}

func TestWakeCallbacksRunOnRelease(t *testing.T) {
	r := newRig(t, Options{})
	r.attach(t, "a")
	wakes := 0
	r.net.OnWake("a", func() { wakes++ })

	r.net.SetGated("a", true)
	if wakes != 0 {
		t.Fatal("wake ran on gating")
	}
	r.net.SetGated("a", false)
	if wakes != 1 {
		t.Fatalf("wakes = %d, want 1", wakes)
	}
	// Redundant releases do not re-fire.
	r.net.SetGated("a", false)
	if wakes != 1 {
		t.Fatalf("wakes = %d after redundant release", wakes)
	}
}

func TestWakeOrderOutboxBeforeCallbacksBeforeDrain(t *testing.T) {
	// On release: held sends flush first, then wake callbacks, then the
	// backlog drains at the service rate (docs/ARCHITECTURE.md §Fault
	// injection).
	r := newRig(t, Options{})
	a, _ := r.attach(t, "a")
	b, _ := r.attach(t, "b")

	var order []string
	r.net.Attach("obs", func(from string, payload []byte) {
		order = append(order, "delivered:"+string(payload))
	})
	r.net.OnWake("a", func() { order = append(order, "wake") })

	r.net.SetGated("a", true)
	a.SendPacket("obs", []byte("held-send"), false)
	b.SendPacket("a", []byte("inbound"), false)
	r.sched.RunFor(time.Second)

	_, err := r.net.Attach("probe", func(string, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	r.net.SetGated("a", false)
	// The held send is back in flight (latency applies); wake callbacks
	// already ran synchronously.
	if len(order) != 1 || order[0] != "wake" {
		t.Fatalf("order after release = %v", order)
	}
	r.sched.RunFor(time.Second)
	if len(order) != 2 || order[1] != "delivered:held-send" {
		t.Fatalf("final order = %v", order)
	}
}

func TestFailLinkIsDirectional(t *testing.T) {
	r := newRig(t, Options{})
	a, aGot := r.attach(t, "a")
	b, bGot := r.attach(t, "b")

	r.net.FailLink("a", "b", true)
	a.SendPacket("b", []byte("x"), false)
	b.SendPacket("a", []byte("y"), false)
	r.sched.RunFor(time.Second)

	if len(*bGot) != 0 {
		t.Error("packet crossed failed link")
	}
	if len(*aGot) != 1 {
		t.Error("reverse direction affected")
	}

	r.net.FailLink("a", "b", false)
	a.SendPacket("b", []byte("z"), false)
	r.sched.RunFor(time.Second)
	if len(*bGot) != 1 {
		t.Error("link did not heal")
	}
}

func TestAttachRejectsDuplicatesAndNilHandler(t *testing.T) {
	r := newRig(t, Options{})
	r.attach(t, "a")
	if _, err := r.net.Attach("a", func(string, []byte) {}); err == nil {
		t.Error("duplicate attach accepted")
	}
	if _, err := r.net.Attach("x", nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestDetachDropsInFlight(t *testing.T) {
	r := newRig(t, Options{})
	a, _ := r.attach(t, "a")
	_, bGot := r.attach(t, "b")
	a.SendPacket("b", []byte("x"), false)
	r.net.Detach("b")
	r.sched.RunFor(time.Second)
	if len(*bGot) != 0 {
		t.Error("packet delivered to detached member")
	}
}

// TestDetachReleasesHeldPackets: a crashed member holds the backlog it
// had queued when it crashed and the sends its gate holds; detaching it
// returns every one of those buffers to the pool and counts nothing.
func TestDetachReleasesHeldPackets(t *testing.T) {
	before := bufpool.Outstanding()
	r := newRig(t, Options{})
	a, _ := r.attach(t, "a")
	b, _ := r.attach(t, "b")
	r.attach(t, "c")
	r.net.Pause("b", PauseBuffer)
	a.SendPacket("b", []byte("queued"), false)
	a.SendPacketFanout([]string{"b", "c"}, []byte("fan-out"), false)
	r.sched.RunFor(time.Second)
	r.net.Crash("b")
	b.SendPacket("a", []byte("held"), false)
	b.SendPacketFanout([]string{"a", "c"}, []byte("held fan-out"), false)
	if got := r.net.QueueLen("b"); got != 2 {
		t.Fatalf("crashed member queues %d packets, want 2", got)
	}
	stats := r.net.TotalStats()
	r.net.Detach("b")
	r.sched.RunFor(time.Second)
	if held := bufpool.Outstanding() - before; held != 0 {
		t.Errorf("%d buffers still out after detaching the crashed member, want 0", held)
	}
	if got := r.net.TotalStats(); got != stats {
		t.Errorf("detach moved the statistics: %+v, was %+v", got, stats)
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Two networks with the same seed and workload must produce
	// identical delivery traces.
	run := func() []string {
		sched := NewScheduler(time.Unix(0, 0))
		network := NewNetwork(sched, Options{Seed: 99})
		var trace []string
		ports := make([]*Port, 4)
		for i := range ports {
			name := fmt.Sprintf("n%d", i)
			p, err := network.Attach(name, func(from string, payload []byte) {
				trace = append(trace, fmt.Sprintf("%v %s<-%s %s", sched.Now().UnixNano(), name, from, payload))
			})
			if err != nil {
				t.Fatal(err)
			}
			ports[i] = p
		}
		for round := 0; round < 50; round++ {
			src := ports[round%4]
			dst := fmt.Sprintf("n%d", (round+1)%4)
			src.SendPacket(dst, []byte{byte(round)}, false)
			sched.RunFor(10 * time.Millisecond)
		}
		return trace
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, t1[i], t2[i])
		}
	}
}

func TestTotalStats(t *testing.T) {
	r := newRig(t, Options{})
	a, _ := r.attach(t, "a")
	b, _ := r.attach(t, "b")
	a.SendPacket("b", []byte("12345"), false)
	b.SendPacket("a", []byte("123"), false)
	r.sched.RunFor(time.Second)
	total := r.net.TotalStats()
	if total.MsgsSent != 2 || total.BytesSent != 8 || total.MsgsDelivered != 2 {
		t.Errorf("total = %+v", total)
	}

	// A detached member's traffic stays in the total, and a replacement
	// attached under the same name adds to it.
	r.net.Detach("a")
	a2, _ := r.attach(t, "a")
	a2.SendPacket("b", []byte("1234567"), false)
	r.sched.RunFor(time.Second)
	total = r.net.TotalStats()
	if total.MsgsSent != 3 || total.BytesSent != 15 || total.MsgsDelivered != 3 {
		t.Errorf("total after detach and re-attach = %+v", total)
	}
}

func TestDelayDistBounds(t *testing.T) {
	d := DelayDist{Base: 2 * time.Millisecond, Jitter: 5 * time.Millisecond}
	rng := newTestRand()
	for i := 0; i < 1000; i++ {
		if got := d.sample(rng); got < 2*time.Millisecond || got >= 7*time.Millisecond {
			t.Fatalf("delay %v out of [2ms, 7ms)", got)
		}
	}
	// Without jitter the draw is Base, and the RNG is left untouched.
	used, fresh := newTestRand(), newTestRand()
	if got := (DelayDist{Base: 5 * time.Millisecond}).sample(used); got != 5*time.Millisecond {
		t.Errorf("jitter-free delay %v, want 5ms", got)
	}
	if used.Int63() != fresh.Int63() {
		t.Error("a jitter-free sample drew from the RNG")
	}
}

// TestFlatDelayDraws pins the latency draw for draw: the k-th packet's
// one-way delay is the k-th 100µs + Int63n(900µs) from an RNG seeded
// with Options.Seed.
func TestFlatDelayDraws(t *testing.T) {
	const seed = 42
	r := newRig(t, Options{Seed: seed})
	a, _ := r.attach(t, "a")
	var at time.Time
	if _, err := r.net.Attach("b", func(string, []byte) { at = r.sched.Now() }); err != nil {
		t.Fatal(err)
	}
	want := rand.New(rand.NewSource(seed))
	for k := 0; k < 200; k++ {
		sent := r.sched.Now()
		a.SendPacket("b", []byte("x"), false)
		r.sched.RunFor(10 * time.Millisecond)
		// Arrival is the delay plus one default service interval.
		got := at.Sub(sent) - 100*time.Microsecond
		if w := 100*time.Microsecond + time.Duration(want.Int63n(int64(900*time.Microsecond))); got != w {
			t.Fatalf("packet %d: delay %v, want %v", k, got, w)
		}
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(7)) }
