package sim

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestFanoutSharesOneBufferAcrossPorts fans one payload out to 8 ports
// and pins the zero-copy contract from both sides: every delivery reads
// the caller's original bytes even though the caller's buffer is
// mutated right after the send returns (the copy happens synchronously,
// exactly once), and all deliveries observe the same backing array (no
// per-destination copies). Each handler additionally fans concurrent
// readers over the payload so `go test -race` proves shared delivery is
// read-only.
func TestFanoutSharesOneBufferAcrossPorts(t *testing.T) {
	r := newRig(t, Options{Seed: 1})
	src, _ := r.attach(t, "src")

	const fanout = 8
	var (
		addrs    []string
		delivers int
		backing  map[*byte]int // payload backing array → deliveries seen
	)
	backing = make(map[*byte]int)
	want := []byte("gossip-round-payload")
	for i := 0; i < fanout; i++ {
		name := fmt.Sprintf("dst%d", i)
		addrs = append(addrs, name)
		if _, err := r.net.Attach(name, func(from string, payload []byte) {
			if !bytes.Equal(payload, want) {
				t.Errorf("%s delivered %q, want %q", from, payload, want)
			}
			backing[&payload[0]]++
			var wg sync.WaitGroup
			for k := 0; k < 4; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sum := 0
					for _, b := range payload {
						sum += int(b)
					}
					_ = sum
				}()
			}
			wg.Wait()
			delivers++
		}); err != nil {
			t.Fatal(err)
		}
	}

	caller := append([]byte(nil), want...)
	if err := src.SendPacketFanout(addrs, caller, false); err != nil {
		t.Fatal(err)
	}
	// The caller's buffer is only guaranteed for the duration of the
	// call; scribbling over it must not affect any in-flight delivery.
	for i := range caller {
		caller[i] = 0xFF
	}
	r.sched.RunFor(time.Second)

	if delivers != fanout {
		t.Fatalf("delivered %d packets, want %d", delivers, fanout)
	}
	if len(backing) != 1 {
		t.Fatalf("deliveries used %d distinct payload buffers, want 1 shared", len(backing))
	}
	for _, n := range backing {
		if n != fanout {
			t.Fatalf("shared buffer delivered %d times, want %d", n, fanout)
		}
	}
	stats := r.net.NodeStats("src")
	if stats.MsgsSent != fanout || stats.BytesSent != int64(fanout*len(want)) {
		t.Fatalf("sender stats %+v, want %d msgs / %d bytes", stats, fanout, fanout*len(want))
	}
}

// TestFanoutWhileGatedFlushesOnWake verifies the outbox path holds one
// reference per destination on the shared buffer: packets queued while
// the sender is gated all deliver after the gate lifts.
func TestFanoutWhileGatedFlushesOnWake(t *testing.T) {
	r := newRig(t, Options{Seed: 1})
	src, _ := r.attach(t, "src")
	var got []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		if _, err := r.net.Attach(name, func(from string, payload []byte) {
			got = append(got, name+"<-"+string(payload))
		}); err != nil {
			t.Fatal(err)
		}
	}

	r.net.SetGated("src", true)
	if err := src.SendPacketFanout([]string{"a", "b", "c"}, []byte("late"), false); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(50 * time.Millisecond)
	if len(got) != 0 {
		t.Fatalf("gated sender leaked %v", got)
	}
	r.net.SetGated("src", false)
	r.sched.RunFor(time.Second)
	if len(got) != 3 {
		t.Fatalf("after wake got %v, want 3 deliveries", got)
	}
}

// TestFanoutDropPathsReleaseReferences exercises every per-destination
// drop path against the shared buffer — unknown destination, failed
// link, detached port — and verifies the remaining destinations still
// deliver intact bytes (a refcount bug here corrupts or double-frees
// the pooled buffer; the bufpool poison panics make that loud).
func TestFanoutDropPathsReleaseReferences(t *testing.T) {
	r := newRig(t, Options{Seed: 1})
	src, _ := r.attach(t, "src")
	_, okGot := r.attach(t, "ok")
	_, cutGot := r.attach(t, "cut")
	r.attach(t, "gone")
	r.net.Detach("gone")
	r.net.FailLink("src", "cut", true)

	payload := []byte("survivors-only")
	if err := src.SendPacketFanout([]string{"ghost", "cut", "gone", "ok"}, payload, false); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(time.Second)

	if len(*cutGot) != 0 {
		t.Fatalf("failed link delivered %v", *cutGot)
	}
	if len(*okGot) != 1 || (*okGot)[0] != "src:survivors-only" {
		t.Fatalf("ok got %v, want the intact payload", *okGot)
	}
	// The buffer must have drained back to the pool: a fresh send can
	// reuse it without tripping the acquire/release poison checks.
	if err := src.SendPacket("ok", []byte("again"), false); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(time.Second)
	if len(*okGot) != 2 {
		t.Fatalf("follow-up send not delivered: %v", *okGot)
	}
}

// BenchmarkNetworkDeliverFanout measures the zero-copy fan-out path —
// one payload copy shared by 8 destinations, each with its own delay
// draw, delivery event and service event. Steady state must be
// allocation-free, pinning the refcounted buffer sharing (the old path
// paid one bufpool copy per destination).
func BenchmarkNetworkDeliverFanout(b *testing.B) {
	sched := NewScheduler(time.Unix(0, 0))
	net := NewNetwork(sched, Options{Seed: 1})
	const fanout = 8
	received := 0
	src, err := net.Attach("src", func(string, []byte) { received++ })
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]string, fanout)
	for i := 0; i < fanout; i++ {
		name := fmt.Sprintf("m%d", i)
		if _, err := net.Attach(name, func(string, []byte) { received++ }); err != nil {
			b.Fatal(err)
		}
		addrs[i] = name
	}
	payload := make([]byte, 64)
	// Warm the pools (delivery structs, scheduler events, inboxes) so
	// the measured loop is steady state. Each iteration drains fully,
	// so pending events never exceed one round's worth and neither the
	// pools nor the scheduler's heap grow mid-measurement.
	for i := 0; i < 64; i++ {
		if err := src.SendPacketFanout(addrs, payload, false); err != nil {
			b.Fatal(err)
		}
		sched.RunFor(5 * time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.SendPacketFanout(addrs, payload, false); err != nil {
			b.Fatal(err)
		}
		sched.RunFor(5 * time.Millisecond)
	}
	sched.RunFor(time.Second)
	if received == 0 {
		b.Fatal("no packets delivered")
	}
}
