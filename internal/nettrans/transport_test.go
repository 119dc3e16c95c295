package nettrans

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
)

// collector gathers delivered packets behind a mutex (delivery is
// concurrent).
type collector struct {
	mu   sync.Mutex
	pkts [][]byte
}

func (c *collector) handle(_ string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The delivery loops reuse their read buffers (PacketHandler
	// contract), so retained payloads must be copied.
	c.pkts = append(c.pkts, append([]byte(nil), payload...))
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) [][]byte {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		if len(c.pkts) >= n {
			out := make([][]byte, len(c.pkts))
			copy(out, c.pkts)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.Fatalf("timed out waiting for %d packets (have %d)", n, len(c.pkts))
	return nil
}

func newPair(t *testing.T) (*Transport, *Transport, *collector, *collector) {
	t.Helper()
	a, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	ca, cb := &collector{}, &collector{}
	a.Run(ca.handle)
	b.Run(cb.handle)
	return a, b, ca, cb
}

func TestUDPRoundTrip(t *testing.T) {
	a, b, _, cb := newPair(t)
	payload := []byte("hello over udp")
	if err := a.SendPacket(b.LocalAddr(), payload, false); err != nil {
		t.Fatal(err)
	}
	got := cb.wait(t, 1, 2*time.Second)
	if !bytes.Equal(got[0], payload) {
		t.Errorf("got %q", got[0])
	}
	_ = a
}

func TestReliableRoundTrip(t *testing.T) {
	a, b, _, cb := newPair(t)
	payload := []byte("hello over tcp")
	if err := a.SendPacket(b.LocalAddr(), payload, true); err != nil {
		t.Fatal(err)
	}
	got := cb.wait(t, 1, 2*time.Second)
	if !bytes.Equal(got[0], payload) {
		t.Errorf("got %q", got[0])
	}
}

func TestLargePayloadGoesOverStream(t *testing.T) {
	a, b, _, cb := newPair(t)
	// Larger than any UDP datagram we send: forced onto TCP.
	payload := bytes.Repeat([]byte{0xAB}, 200_000)
	if err := a.SendPacket(b.LocalAddr(), payload, false); err != nil {
		t.Fatal(err)
	}
	got := cb.wait(t, 1, 5*time.Second)
	if !bytes.Equal(got[0], payload) {
		t.Errorf("large payload corrupted (len %d)", len(got[0]))
	}
}

// TestBytesSentCountsUDPAndTCP: BytesSent is the payload bytes of every
// datagram written and every frame queued, the framing excluded, the
// quantity the simulator's Stats.BytesSent measures.
func TestBytesSentCountsUDPAndTCP(t *testing.T) {
	a, b, _, cb := newPair(t)
	udp := []byte("datagram")
	reliable := []byte("reliable frame")
	large := bytes.Repeat([]byte{0xCD}, 100_000) // too large for a datagram
	for _, send := range []struct {
		payload  []byte
		reliable bool
	}{{udp, false}, {reliable, true}, {large, false}} {
		if err := a.SendPacket(b.LocalAddr(), send.payload, send.reliable); err != nil {
			t.Fatal(err)
		}
	}
	cb.wait(t, 3, 5*time.Second)
	s := a.Stats()
	if want := uint64(len(udp) + len(reliable) + len(large)); s.BytesSent != want {
		t.Errorf("bytes sent = %d, want %d", s.BytesSent, want)
	}
	if s.DatagramsSent != 1 {
		t.Errorf("datagrams sent = %d, want 1", s.DatagramsSent)
	}
	if got := b.Stats().BytesSent; got != 0 {
		t.Errorf("receiver's bytes sent = %d, want 0", got)
	}
}

func TestManyPacketsBothDirections(t *testing.T) {
	a, b, ca, cb := newPair(t)
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.SendPacket(b.LocalAddr(), []byte(fmt.Sprintf("a->b %d", i)), false); err != nil {
			t.Fatal(err)
		}
		if err := b.SendPacket(a.LocalAddr(), []byte(fmt.Sprintf("b->a %d", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	// UDP on loopback is effectively lossless; expect everything.
	cb.wait(t, n, 5*time.Second)
	ca.wait(t, n, 5*time.Second)
}

func TestBindFailsOnBadAddress(t *testing.T) {
	if _, err := New("999.999.999.999:1"); err == nil {
		t.Fatal("bad bind address accepted")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	a, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.SendPacket("127.0.0.1:9", []byte("x"), false); err == nil {
		t.Error("send after close succeeded")
	}
	// Close is idempotent.
	if err := a.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestCloseUnblocksLoops(t *testing.T) {
	a, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.Run(func(string, []byte) {})
	done := make(chan struct{})
	go func() {
		a.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on delivery loops")
	}
}

func TestReliableToUnreachableDoesNotBlockCaller(t *testing.T) {
	a, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Run(func(string, []byte) {})

	start := time.Now()
	// TEST-NET-1 address: connection will not succeed; the call must
	// return immediately (async dial).
	if err := a.SendPacket("192.0.2.1:9", []byte("x"), true); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("reliable send blocked for %v", d)
	}
}

// TestOversizedPayloadRejected pins the send-side bound: a payload
// larger than the stream frame limit is rejected with
// ErrPayloadTooLarge on both channels — a receiver would drop the
// connection unread, so sending it would silently black-hole bytes.
func TestOversizedPayloadRejected(t *testing.T) {
	a, b, _, cb := newPair(t)
	huge := make([]byte, maxStreamMsg+1)
	for _, reliable := range []bool{false, true} {
		err := a.SendPacket(b.LocalAddr(), huge, reliable)
		if !errors.Is(err, ErrPayloadTooLarge) {
			t.Errorf("oversized send (reliable=%v) err = %v, want ErrPayloadTooLarge", reliable, err)
		}
	}
	// The limit itself is still deliverable (over the stream channel).
	if err := a.SendPacket(b.LocalAddr(), bytes.Repeat([]byte{1}, maxPacket+1), false); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1, 5*time.Second)
}

// waitGoroutinesBelow polls until the live goroutine count drops to at
// most limit, giving detached sends and delivery loops time to unwind.
func waitGoroutinesBelow(t *testing.T, limit int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= limit {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines = %d, want <= %d (leak)", runtime.NumGoroutine(), limit)
}

// TestConcurrentSendDuringClose hammers SendPacket from many goroutines
// while the transport shuts down: no panic, every call returns, and no
// goroutine outlives the close (the async reliable senders are
// wg-tracked, so Close must wait for them).
func TestConcurrentSendDuringClose(t *testing.T) {
	base := runtime.NumGoroutine()
	a, b, _, _ := newPair(t)

	var senders sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		senders.Add(1)
		go func(g int) {
			defer senders.Done()
			<-start
			for i := 0; i < 50; i++ {
				// Errors are expected once the transport closes; the
				// contract under test is "no panic, prompt return".
				_ = a.SendPacket(b.LocalAddr(), []byte("x"), i%2 == 0)
			}
		}(g)
	}
	close(start)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	senders.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// +2 slack: runtime housekeeping goroutines that may have spawned.
	waitGoroutinesBelow(t, base+2, 5*time.Second)
}

// TestReliableSurvivesDeadUDPSocket kills the UDP socket out from under
// a live transport: the UDP delivery loop must exit instead of
// hot-spinning, unreliable sends must fail loudly, and the TCP channel
// — the protocol's fallback path — must keep delivering.
func TestReliableSurvivesDeadUDPSocket(t *testing.T) {
	base := runtime.NumGoroutine()
	a, b, _, cb := newPair(t)

	if err := a.udp.Close(); err != nil {
		t.Fatal(err)
	}
	// newPair started 4 delivery loops (2 per transport); the udpLoop of
	// a must exit on net.ErrClosed without Close having been called —
	// observable as the count dropping to 3 loops above baseline.
	waitGoroutinesBelow(t, base+3, 5*time.Second)

	if err := a.SendPacket(b.LocalAddr(), []byte("x"), false); err == nil {
		t.Error("unreliable send on a dead UDP socket succeeded")
	}
	payload := []byte("over tcp despite dead udp")
	if err := a.SendPacket(b.LocalAddr(), payload, true); err != nil {
		t.Fatal(err)
	}
	got := cb.wait(t, 1, 5*time.Second)
	if !bytes.Equal(got[0], payload) {
		t.Errorf("got %q", got[0])
	}
	// Close stays clean: it must not hang on the already-dead loop. The
	// double-close error on the UDP socket is reported but harmless.
	done := make(chan struct{})
	go func() { a.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after UDP socket death")
	}
}

func TestAdvertisedAddressUsable(t *testing.T) {
	a, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c := &collector{}
	a.Run(c.handle)
	// Self-send through the advertised address.
	if err := a.SendPacket(a.LocalAddr(), []byte("loop"), false); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1, 2*time.Second)
}

// squatTCP holds n TCP-only listeners on kernel-chosen loopback ports
// for the rest of the test, the way other processes' listeners and
// outbound connections do on a busy host: each holds a TCP port whose
// UDP twin is free, so the kernel may hand that port to a UDP bind and
// the TCP listen on it then fails with EADDRINUSE.
func squatTCP(t *testing.T, n int) []*net.TCPAddr {
	t.Helper()
	addrs := make([]*net.TCPAddr, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		addrs[i] = l.Addr().(*net.TCPAddr)
	}
	return addrs
}

// TestPortZeroBindsConcurrently binds a few hundred port-0 transports at
// once on a loopback whose ephemeral TCP range is partly taken (about
// 3 % per bind hits a held TCP port, so without the fresh-pair retry
// some bind here fails with "address already in use" nearly every run)
// and checks every transport advertises a port both its sockets hold.
func TestPortZeroBindsConcurrently(t *testing.T) {
	squatTCP(t, 800)
	const binds = 256
	trs := make([]*Transport, binds)
	errs := make([]error, binds)
	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trs[i], errs[i] = New("127.0.0.1:0")
		}(i)
	}
	wg.Wait()
	seen := make(map[string]bool, binds)
	for i, tr := range trs {
		if errs[i] != nil {
			t.Errorf("bind %d: %v", i, errs[i])
			continue
		}
		defer tr.Close()
		udp, tcp := tr.udp.LocalAddr().String(), tr.tcp.Addr().String()
		if adv := tr.LocalAddr(); adv != udp || adv != tcp {
			t.Errorf("bind %d advertises %s but holds udp %s, tcp %s", i, adv, udp, tcp)
		}
		if seen[tr.LocalAddr()] {
			t.Errorf("bind %d: address %s handed out twice", i, tr.LocalAddr())
		}
		seen[tr.LocalAddr()] = true
	}
}

// TestExplicitPortInUseFails pins the other half of the contract: a
// caller who names a port gets that port or an error, never another.
func TestExplicitPortInUseFails(t *testing.T) {
	held := squatTCP(t, 1)[0]
	tr, err := New(held.String())
	if err == nil {
		tr.Close()
		t.Fatalf("bound %s although its TCP port is held", tr.LocalAddr())
	}
	if !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("error %v, want EADDRINUSE", err)
	}
}
