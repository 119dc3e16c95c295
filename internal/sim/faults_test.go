package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// sendN pumps n unreliable packets from src to dst, one every interval.
func sendN(t *testing.T, r *rig, src *Port, dst string, n int, interval time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := src.SendPacket(dst, []byte{byte(i)}, false); err != nil {
			t.Fatal(err)
		}
		r.sched.RunFor(interval)
	}
}

// TestLinkFaultCounts pins the exact per-seed intervention counts of an
// impaired link: how many of 400 packets are fault-dropped, duplicated
// and reordered at seed 7. With an unimpeded receiver (as here) every
// duplicate lands, so delivered = sent − dropped + duplicated.
func TestLinkFaultCounts(t *testing.T) {
	cases := []struct {
		name                           string
		fault                          LinkFault
		wantDrop, wantDup, wantReorder int64
		wantDelivered                  int64
		reliable                       bool
	}{
		{
			name:          "loss only",
			fault:         LinkFault{Loss: 0.3},
			wantDrop:      124,
			wantDelivered: 276,
		},
		{
			name:          "duplication only",
			fault:         LinkFault{Duplicate: 0.2},
			wantDup:       69,
			wantDelivered: 469,
		},
		{
			name:          "reordering only",
			fault:         LinkFault{Reorder: 0.25},
			wantReorder:   94,
			wantDelivered: 400,
		},
		{
			name:          "combined",
			fault:         LinkFault{Loss: 0.3, Duplicate: 0.2, Reorder: 0.25},
			wantDrop:      126,
			wantDup:       49,
			wantReorder:   67,
			wantDelivered: 323,
		},
		{
			// Reliable traffic is exempt from fault loss and
			// duplication (TCP retransmits and dedups) but still
			// subject to reordering (TCP cannot mask delay).
			name:          "reliable exempt from loss and duplication",
			fault:         LinkFault{Loss: 1.0, Duplicate: 1.0, Reorder: 0.25},
			reliable:      true,
			wantDup:       0,
			wantReorder:   94,
			wantDelivered: 400,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, Options{Seed: 7})
			a, _ := r.attach(t, "a")
			r.attach(t, "b")
			r.net.SetLinkFault("a", "b", tc.fault)
			for i := 0; i < 400; i++ {
				if err := a.SendPacket("b", []byte{byte(i)}, tc.reliable); err != nil {
					t.Fatal(err)
				}
				r.sched.RunFor(5 * time.Millisecond)
			}
			r.sched.RunFor(time.Second)
			got := r.net.NodeStats("b")
			if got.DropsFault != tc.wantDrop || got.Duplicated != tc.wantDup || got.Reordered != tc.wantReorder {
				t.Errorf("interventions drop/dup/reorder = %d/%d/%d, want %d/%d/%d",
					got.DropsFault, got.Duplicated, got.Reordered,
					tc.wantDrop, tc.wantDup, tc.wantReorder)
			}
			if got.MsgsDelivered != tc.wantDelivered {
				t.Errorf("delivered = %d, want %d", got.MsgsDelivered, tc.wantDelivered)
			}
			if sent := r.net.NodeStats("a").MsgsSent; sent != 400 {
				t.Errorf("sent = %d, want 400", sent)
			}
		})
	}
}

// TestLinkFaultIsDirectionalAndClearable pins that an impairment
// applies to one direction only and stops at ClearLinkFault.
func TestLinkFaultIsDirectionalAndClearable(t *testing.T) {
	r := newRig(t, Options{Seed: 3})
	a, _ := r.attach(t, "a")
	b, _ := r.attach(t, "b")
	r.net.SetLinkFault("a", "b", LinkFault{Loss: 1.0})

	sendN(t, r, a, "b", 20, time.Millisecond)
	sendN(t, r, b, "a", 20, time.Millisecond)
	r.sched.RunFor(time.Second)
	if got := r.net.NodeStats("b"); got.MsgsDelivered != 0 || got.DropsFault != 20 {
		t.Errorf("impaired direction: %+v", got)
	}
	if got := r.net.NodeStats("a"); got.MsgsDelivered != 20 || got.DropsFault != 0 {
		t.Errorf("reverse direction: %+v", got)
	}

	r.net.ClearLinkFault("a", "b")
	sendN(t, r, a, "b", 20, time.Millisecond)
	r.sched.RunFor(time.Second)
	if got := r.net.NodeStats("b").MsgsDelivered; got != 20 {
		t.Errorf("after heal: delivered = %d, want 20", got)
	}
}

// TestReorderedPacketIsOvertaken pins the semantic point of the reorder
// fault: a held-back packet is actually overtaken by one sent later,
// and its hold-back is a draw from reorderHold.
func TestReorderedPacketIsOvertaken(t *testing.T) {
	r := newRig(t, Options{Seed: 1})
	latency := flatDelays(1)
	a, _ := r.attach(t, "a")
	var got []string
	var heldAt time.Time
	if _, err := r.net.Attach("b", func(_ string, payload []byte) {
		got = append(got, string(payload))
		if string(payload) == "held" {
			heldAt = r.sched.Now()
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Reorder the first packet, whose hold-back of at least 10 ms lets
	// the next packet (sent 2 ms later, arriving under 1.1 ms after
	// that) overtake it; then clear and send the chaser un-reordered.
	r.net.SetLinkFault("a", "b", LinkFault{Reorder: 1.0})
	a.SendPacket("b", []byte("held"), false)
	r.sched.RunFor(2 * time.Millisecond)
	r.net.ClearLinkFault("a", "b")
	a.SendPacket("b", []byte("chaser"), false)
	r.sched.RunFor(time.Second)
	if len(got) != 2 || got[0] != "chaser" || got[1] != "held" {
		t.Fatalf("delivery order %v, want chaser before held", got)
	}
	// Arrival is the first packet's latency + the hold-back + service.
	hold := heldAt.Sub(time.Unix(0, 0)) - latency() - serviceTime
	if hold < reorderHold.Base || hold >= reorderHold.Base+reorderHold.Jitter {
		t.Errorf("hold-back %v outside [%v, %v)", hold, reorderHold.Base, reorderHold.Base+reorderHold.Jitter)
	}
	if got := r.net.NodeStats("b").Reordered; got != 1 {
		t.Errorf("reordered = %d, want 1", got)
	}
}

// TestPauseBufferVsDrop pins the two pause modes: buffered inbound
// drains after resume; dropped inbound is gone (counted as DropsFault)
// and only post-resume traffic gets through.
func TestPauseBufferVsDrop(t *testing.T) {
	cases := []struct {
		mode          PauseMode
		wantDelivered int64
		wantDropped   int64
	}{
		{mode: PauseBuffer, wantDelivered: 10, wantDropped: 0},
		{mode: PauseDrop, wantDelivered: 5, wantDropped: 5},
	}
	for _, tc := range cases {
		name := map[PauseMode]string{PauseBuffer: "buffer", PauseDrop: "drop"}[tc.mode]
		t.Run(name, func(t *testing.T) {
			r := newRig(t, Options{})
			a, _ := r.attach(t, "a")
			r.attach(t, "b")
			r.net.Pause("b", tc.mode)
			sendN(t, r, a, "b", 5, 10*time.Millisecond)
			r.sched.RunFor(time.Second)
			if got := r.net.NodeStats("b").MsgsDelivered; got != 0 {
				t.Fatalf("paused member processed %d packets", got)
			}
			r.net.Resume("b")
			sendN(t, r, a, "b", 5, 10*time.Millisecond)
			r.sched.RunFor(time.Second)
			got := r.net.NodeStats("b")
			if got.MsgsDelivered != tc.wantDelivered || got.DropsFault != tc.wantDropped {
				t.Errorf("delivered/dropped = %d/%d, want %d/%d",
					got.MsgsDelivered, got.DropsFault, tc.wantDelivered, tc.wantDropped)
			}
		})
	}
}

// TestSetGatedReleaseEndsDropMode pins the gate/drop invariant: a
// member paused in drop mode that is released through the plain gate
// API (the experiment anomaly path) hears traffic again — dropInbound
// cannot outlive the gate and leave a running member permanently deaf.
func TestSetGatedReleaseEndsDropMode(t *testing.T) {
	r := newRig(t, Options{})
	a, _ := r.attach(t, "a")
	r.attach(t, "b")
	r.net.Pause("b", PauseDrop)
	sendN(t, r, a, "b", 3, 10*time.Millisecond)
	r.net.SetGated("b", false) // anomaly-gate release, not Resume
	sendN(t, r, a, "b", 3, 10*time.Millisecond)
	r.sched.RunFor(time.Second)
	got := r.net.NodeStats("b")
	if got.MsgsDelivered != 3 || got.DropsFault != 3 {
		t.Errorf("delivered/dropped = %d/%d after gate release, want 3/3", got.MsgsDelivered, got.DropsFault)
	}
}

// TestCrashNodeNeverResponds pins that a crash silences a member
// permanently: inbound dropped, sends held forever.
func TestCrashNodeNeverResponds(t *testing.T) {
	r := newRig(t, Options{})
	a, aGot := r.attach(t, "a")
	b, _ := r.attach(t, "b")
	r.sched.Schedule(10*time.Millisecond, func() { r.net.Crash("b") })

	r.sched.RunFor(20 * time.Millisecond)
	b.SendPacket("a", []byte("from the grave"), false)
	sendN(t, r, a, "b", 5, 10*time.Millisecond)
	r.sched.RunFor(time.Minute)
	if len(*aGot) != 0 {
		t.Errorf("a heard from crashed b: %v", *aGot)
	}
	if got := r.net.NodeStats("b"); got.MsgsDelivered != 0 || got.DropsFault != 5 {
		t.Errorf("crashed member stats: %+v", got)
	}
	if !r.net.Crashed("b") {
		t.Error("Crashed not reported")
	}
}

// TestCrashIsSticky pins that a crash survives later pause/resume/gate
// transitions: a schedule that flaps a member it also crashes cannot
// accidentally resurrect it.
func TestCrashIsSticky(t *testing.T) {
	r := newRig(t, Options{})
	a, _ := r.attach(t, "a")
	r.attach(t, "b")

	r.net.Crash("b")
	// Every resurrection path must be a no-op.
	r.net.Resume("b")
	r.net.SetGated("b", false)
	r.net.Pause("b", PauseBuffer)
	r.net.Resume("b")

	sendN(t, r, a, "b", 3, 10*time.Millisecond)
	r.sched.RunFor(time.Minute)
	if got := r.net.NodeStats("b"); got.MsgsDelivered != 0 || got.DropsFault != 3 {
		t.Errorf("crashed member came back: %+v", got)
	}
	if !r.net.Gated("b") || !r.net.Crashed("b") {
		t.Error("crashed member lost its gate or crash mark")
	}
}

// TestDegradedServiceDelayBounds pins the degradation distribution at
// the inbound path: every delivery at a degraded member lands within
// [serviceTime+Base, serviceTime+Base+Jitter) of its arrival, and
// restoring the member returns service to the plain serviceTime.
func TestDegradedServiceDelayBounds(t *testing.T) {
	const service = serviceTime
	degrade := DelayDist{Base: 20 * time.Millisecond, Jitter: 30 * time.Millisecond}
	r := newRig(t, Options{Seed: 11})
	latency := flatDelays(11)
	a, _ := r.attach(t, "a")
	var served []time.Time
	if _, err := r.net.Attach("b", func(string, []byte) { served = append(served, r.sched.Now()) }); err != nil {
		t.Fatal(err)
	}
	r.net.SetDegraded("b", degrade)
	if !r.net.Degraded("b") {
		t.Fatal("Degraded not reported")
	}

	// One packet at a time, so service delay is measured without
	// queueing: arrival is send + that packet's latency.
	const rounds = 50
	var sent []time.Time
	for i := 0; i < rounds; i++ {
		sent = append(sent, r.sched.Now())
		a.SendPacket("b", []byte{byte(i)}, false)
		r.sched.RunFor(200 * time.Millisecond)
	}
	if len(served) != rounds {
		t.Fatalf("served %d of %d", len(served), rounds)
	}
	for i := range served {
		d := served[i].Sub(sent[i]) - latency() // strip latency
		lo, hi := service+degrade.Base, service+degrade.Base+degrade.Jitter
		if d < lo || d >= hi {
			t.Fatalf("packet %d served %v after arrival, want [%v, %v)", i, d, lo, hi)
		}
	}

	r.net.SetDegraded("b", DelayDist{})
	if r.net.Degraded("b") {
		t.Fatal("degradation not cleared")
	}
	served = served[:0]
	start := r.sched.Now()
	a.SendPacket("b", []byte("x"), false)
	r.sched.RunFor(time.Second)
	if d, want := served[0].Sub(start), latency()+service; d != want {
		t.Errorf("restored service delay %v, want %v", d, want)
	}
}

// TestNodeClockDegradedTimer pins the degradation distribution at the
// timer path: a degraded member's timer callbacks are deferred by a
// draw within [Base, Base+Jitter), a healthy member's run exactly on
// time, and Stop cancels a timer even after the deferral stage has been
// scheduled.
func TestNodeClockDegradedTimer(t *testing.T) {
	degrade := DelayDist{Base: 20 * time.Millisecond, Jitter: 30 * time.Millisecond}
	r := newRig(t, Options{Seed: 13})
	r.attach(t, "a")
	clock := r.net.NodeClock("a")

	// Healthy: exact.
	var firedAt time.Time
	clock.AfterFunc(10*time.Millisecond, func() { firedAt = r.sched.Now() })
	r.sched.RunFor(time.Second)
	if got := firedAt.Sub(time.Unix(0, 0)); got != 10*time.Millisecond {
		t.Fatalf("healthy timer fired at %v, want 10ms", got)
	}

	// Degraded: deferred within bounds, repeatedly.
	r.net.SetDegraded("a", degrade)
	base := r.sched.Now()
	var fires []time.Duration
	for i := 0; i < 30; i++ {
		at := base.Add(time.Duration(i+1) * 200 * time.Millisecond)
		clock.AfterFunc(at.Sub(r.sched.Now()), func() { fires = append(fires, r.sched.Now().Sub(at)) })
	}
	r.sched.RunFor(time.Minute)
	if len(fires) != 30 {
		t.Fatalf("fired %d of 30", len(fires))
	}
	for i, d := range fires {
		if d < degrade.Base || d >= degrade.Base+degrade.Jitter {
			t.Fatalf("timer %d deferred %v, want [%v, %v)", i, d, degrade.Base, degrade.Base+degrade.Jitter)
		}
	}

	// Stop between the original fire and the deferred callback.
	stopped := false
	timer := clock.AfterFunc(10*time.Millisecond, func() { stopped = true })
	r.sched.RunFor(15 * time.Millisecond) // original event fired, deferral pending
	if !timer.Stop() {
		t.Fatal("Stop reported nothing pending during deferral")
	}
	r.sched.RunFor(time.Second)
	if stopped {
		t.Fatal("stopped timer's callback still ran")
	}
}

// TestStatsMergeCoversAllFields sets every Stats field (current and
// future) to a distinct value via reflection and checks Merge sums each
// one — so a new counter cannot be forgotten in Merge without failing
// here.
// TestNodeTimerResetDuringDeferral covers a degraded member's timer
// between its two stages: once the timer proper has fired and the
// deferred stage is counting down, Reset and Stop both cancel that
// stage (and say so), and the re-armed timer is deferred afresh.
func TestNodeTimerResetDuringDeferral(t *testing.T) {
	degrade := DelayDist{Base: 20 * time.Millisecond}
	r := newRig(t, Options{Seed: 13})
	r.attach(t, "a")
	r.net.SetDegraded("a", degrade)
	clock := r.net.NodeClock("a")

	var fires []time.Duration
	timer := clock.AfterFunc(10*time.Millisecond, func() { fires = append(fires, r.sched.Now().Sub(time.Unix(0, 0))) })
	r.sched.RunFor(15 * time.Millisecond) // timer proper fired, deferral pending until 30ms
	if !timer.Reset(50 * time.Millisecond) {
		t.Fatal("Reset reported nothing pending during deferral")
	}
	if r.sched.Len() != 1 {
		t.Fatalf("%d events pending after Reset, want the new arm only", r.sched.Len())
	}
	r.sched.RunFor(time.Second)
	// Re-armed at 15ms for 50ms, then deferred by the 20ms degradation.
	if len(fires) != 1 || fires[0] != 85*time.Millisecond {
		t.Fatalf("callback ran at %v, want once at 85ms", fires)
	}

	// The same with Stop: a stopped deferral must not leak into the next
	// arm as "already deferred" (which would skip the degradation).
	fires = nil
	base := r.sched.Now().Sub(time.Unix(0, 0))
	timer.Reset(10 * time.Millisecond)
	r.sched.RunFor(15 * time.Millisecond)
	if !timer.Stop() {
		t.Fatal("Stop reported nothing pending during deferral")
	}
	if timer.Stop() || r.sched.Len() != 0 {
		t.Fatalf("second Stop true or %d events left pending", r.sched.Len())
	}
	if timer.Reset(10 * time.Millisecond) {
		t.Fatal("Reset of a stopped timer reported a pending arm")
	}
	r.sched.RunFor(time.Second)
	if len(fires) != 1 || fires[0]-base != 45*time.Millisecond {
		t.Fatalf("callback ran at %v after %v, want once, 45ms later (15 + 10 + 20 deferred)", fires, base)
	}
}

// TestNodeTimerAfterReattach pins that a clock follows its name, not the
// Port it first saw: after Detach and re-Attach, degradation installed
// on the replacement Port defers the old clock's timers, and while the
// name is unattached they fire on time.
func TestNodeTimerAfterReattach(t *testing.T) {
	degrade := DelayDist{Base: 20 * time.Millisecond}
	r := newRig(t, Options{Seed: 13})
	clock := r.net.NodeClock("a") // made before the first Attach, as the harness does
	r.attach(t, "a")

	var firedAt time.Duration
	start := r.sched.Now()
	timer := clock.AfterFunc(10*time.Millisecond, func() { firedAt = r.sched.Now().Sub(start) })
	rearm := func(want time.Duration, when string) {
		t.Helper()
		start = r.sched.Now()
		timer.Reset(10 * time.Millisecond)
		r.sched.RunFor(time.Second)
		if firedAt != want {
			t.Fatalf("%s: fired after %v, want %v", when, firedAt, want)
		}
	}
	r.sched.RunFor(time.Second)
	if firedAt != 10*time.Millisecond {
		t.Fatalf("healthy: fired after %v, want 10ms", firedAt)
	}

	r.net.SetDegraded("a", degrade)
	rearm(30*time.Millisecond, "degraded first port")
	r.net.Detach("a")
	rearm(10*time.Millisecond, "detached")
	r.attach(t, "a")
	rearm(10*time.Millisecond, "healthy replacement port")
	r.net.SetDegraded("a", degrade)
	rearm(30*time.Millisecond, "degraded replacement port")
}

// TestNodeClockGatedMatchesNetwork pins that a clock's Gated answers
// what Network.Gated answers for its name through every gate change: a
// clock made before Attach, Pause, Resume, SetGated, Detach while gated,
// re-Attach under the same name, and Crash.
func TestNodeClockGatedMatchesNetwork(t *testing.T) {
	r := newRig(t, Options{Seed: 1})
	clock := r.net.NodeClock("a")
	check := func(when string, want bool) {
		t.Helper()
		if got := r.net.Gated("a"); got != want {
			t.Fatalf("%s: Network.Gated = %v, want %v", when, got, want)
		}
		if got := clock.Gated(); got != want {
			t.Fatalf("%s: NodeClock.Gated = %v, want %v", when, got, want)
		}
	}
	check("before attach", false)
	r.attach(t, "a")
	check("attached", false)
	r.net.Pause("a", PauseBuffer)
	check("paused", true)
	r.net.Resume("a")
	check("resumed", false)
	r.net.SetGated("a", true)
	check("gated", true)
	r.net.Detach("a")
	check("detached while gated", false)
	r.attach(t, "a")
	check("re-attached", false)
	r.net.SetGated("a", true)
	check("replacement gated", true)
	r.net.SetGated("a", false)
	check("replacement released", false)
	r.net.Crash("a")
	check("crashed", true)
}

func TestStatsMergeCoversAllFields(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Merge(b)
	for i := 0; i < av.NumField(); i++ {
		want := int64(i+1) + int64(100*(i+1))
		if got := av.Field(i).Int(); got != want {
			t.Errorf("field %s = %d after Merge, want %d",
				av.Type().Field(i).Name, got, want)
		}
	}
}

// TestFaultLossDoesNotShiftBaseStream pins the stronger half of the
// two-stream contract: a fault-dropped packet still consumes the base
// delay draw it would have consumed anyway, so clean traffic on other
// links sees byte-identical delivery times whether or not a lossy
// fault is active elsewhere.
func TestFaultLossDoesNotShiftBaseStream(t *testing.T) {
	run := func(withFault bool) []string {
		sched := NewScheduler(time.Unix(0, 0))
		network := NewNetwork(sched, Options{Seed: 9, Loss: 0.1})
		a, err := network.Attach("a", func(string, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		c, err := network.Attach("c", func(string, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		network.Attach("b", func(string, []byte) {})
		var trace []string
		if _, err := network.Attach("d", func(from string, payload []byte) {
			trace = append(trace, fmt.Sprintf("%d@%v", payload[0], sched.Now().Sub(time.Unix(0, 0))))
		}); err != nil {
			t.Fatal(err)
		}
		if withFault {
			network.SetLinkFault("a", "b", LinkFault{Loss: 1.0})
		}
		// Interleave faulted a->b traffic with clean c->d traffic.
		for i := 0; i < 100; i++ {
			a.SendPacket("b", []byte{byte(i)}, false)
			c.SendPacket("d", []byte{byte(i)}, false)
			sched.RunFor(10 * time.Millisecond)
		}
		sched.RunFor(time.Second)
		return trace
	}
	base, faulted := run(false), run(true)
	if len(base) != len(faulted) {
		t.Fatalf("clean-link deliveries changed under a lossy fault elsewhere: %d vs %d", len(base), len(faulted))
	}
	for i := range base {
		if base[i] != faulted[i] {
			t.Fatalf("clean-link delivery %d moved under a lossy fault elsewhere: %s vs %s", i, base[i], faulted[i])
		}
	}
}

// TestFaultRNGIsolation pins the two-stream contract: fault draws come
// from a dedicated RNG, so the base network's per-packet loss decisions
// for the same traffic are identical with and without active faults.
func TestFaultRNGIsolation(t *testing.T) {
	run := func(withFaults bool) (dropsLoss int64, delivered map[byte]int) {
		sched := NewScheduler(time.Unix(0, 0))
		network := NewNetwork(sched, Options{Seed: 42, Loss: 0.3})
		a, err := network.Attach("a", func(string, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		delivered = make(map[byte]int)
		if _, err := network.Attach("b", func(from string, payload []byte) {
			delivered[payload[0]]++
		}); err != nil {
			t.Fatal(err)
		}
		if withFaults {
			// Heavy duplication consumes many fault-stream draws; the
			// base loss stream must not notice.
			network.SetLinkFault("a", "b", LinkFault{Duplicate: 1.0})
		}
		for i := 0; i < 100; i++ {
			a.SendPacket("b", []byte{byte(i)}, false)
			sched.RunFor(10 * time.Millisecond)
		}
		sched.RunFor(time.Second)
		return network.NodeStats("b").DropsLoss, delivered
	}
	baseDrops, base := run(false)
	faultDrops, faulted := run(true)
	if baseDrops != faultDrops {
		t.Errorf("loss drops changed when faults were active: %d vs %d", baseDrops, faultDrops)
	}
	// Exactly the packets that survived loss in the base run must
	// survive in the faulted run (twice each, with Duplicate = 1).
	if len(faulted) != len(base) {
		t.Fatalf("faulted run delivered %d distinct packets, base %d", len(faulted), len(base))
	}
	for payload := range base {
		if faulted[payload] != 2 {
			t.Errorf("packet %d delivered %d times under Duplicate=1, want 2", payload, faulted[payload])
		}
	}
}
