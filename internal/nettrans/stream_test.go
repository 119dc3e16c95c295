package nettrans

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"
)

// delivery is one packet as a handler saw it.
type delivery struct {
	from    string
	payload string
	bufCap  int
}

// recorder is a PacketHandler that forwards every delivery to a channel,
// so tests wait on the event rather than poll.
type recorder chan delivery

func (r recorder) handle(from string, payload []byte) {
	r <- delivery{from, string(payload), cap(payload)}
}

func (r recorder) next(t *testing.T) delivery {
	t.Helper()
	select {
	case d := <-r:
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a delivery")
		return delivery{}
	}
}

// newRecorded binds a transport on bindAddr delivering into a recorder.
func newRecorded(t *testing.T, bindAddr string) (*Transport, recorder) {
	t.Helper()
	tr, err := New(bindAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	r := make(recorder, 256) // holds every delivery a test leaves unread
	tr.Run(r.handle)
	return tr, r
}

// waitFor polls cond, for state that has no event to wait on.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (t *Transport) inboundConns() int {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	return len(t.inbound)
}

// TestReliableSendsShareOneConnection: back-to-back reliable sends to
// one peer are written in order to one connection, dialled once.
func TestReliableSendsShareOneConnection(t *testing.T) {
	a, _ := newRecorded(t, "127.0.0.1:0")
	b, rb := newRecorded(t, "127.0.0.1:0")
	const n = 10
	for i := 0; i < n; i++ {
		if err := a.SendPacket(b.LocalAddr(), []byte(fmt.Sprint("msg ", i)), true); err != nil {
			t.Fatal(err)
		}
	}
	var from string
	for i := 0; i < n; i++ {
		d := rb.next(t)
		if want := fmt.Sprint("msg ", i); d.payload != want {
			t.Fatalf("delivery %d = %q, want %q (out of order)", i, d.payload, want)
		}
		if i > 0 && d.from != from {
			t.Fatalf("delivery %d came over %s, the first over %s", i, d.from, from)
		}
		from = d.from
	}
	waitFor(t, time.Second, "the sender to count its writes", func() bool {
		return a.Stats().StreamReuses == n-1
	})
	if s := a.Stats(); s.StreamDials != 1 || s.OpenStreams != 1 || s.StreamDrops != 0 {
		t.Errorf("stats after %d sends to one peer: %+v, want 1 dial, 1 open stream, 0 drops", n, s)
	}
}

// TestReliableAfterPeerRestart: the peer closes and a new transport
// binds the same port. The cached connection is useless; whichever of
// the watcher (peer's FIN) and the sender (failed write, redial, resend)
// notices first, at most the first send after the restart is lost.
func TestReliableAfterPeerRestart(t *testing.T) {
	a, _ := newRecorded(t, "127.0.0.1:0")
	b, rb := newRecorded(t, "127.0.0.1:0")
	addr := b.LocalAddr()
	if err := a.SendPacket(addr, []byte("before"), true); err != nil {
		t.Fatal(err)
	}
	rb.next(t)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	_, rb2 := newRecorded(t, addr)

	if err := a.SendPacket(addr, []byte("first"), true); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rb2:
	case <-time.After(200 * time.Millisecond): // written into the dead connection: lost
	}
	const n = maxStreamBacklog // a burst the queue holds even while the dial is in progress
	for i := 0; i < n; i++ {
		if err := a.SendPacket(addr, []byte(fmt.Sprint("after ", i)), true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if d, want := rb2.next(t), fmt.Sprint("after ", i); d.payload != want {
			t.Fatalf("delivery %d after the restart = %q, want %q", i, d.payload, want)
		}
	}
	if s := a.Stats(); s.StreamDials < 2 {
		t.Errorf("stats %+v: the restarted peer was never redialled", s)
	}
}

// TestIdleConnectionClosesOnBothSides: a connection unused for
// streamIdle is closed by its sender, which ends the receiver's reader
// too, so a quiet member holds no connection, goroutine or buffer.
func TestIdleConnectionClosesOnBothSides(t *testing.T) {
	base := runtime.NumGoroutine()
	a, _ := newRecorded(t, "127.0.0.1:0")
	b, rb := newRecorded(t, "127.0.0.1:0")
	if err := a.SendPacket(b.LocalAddr(), []byte("x"), true); err != nil {
		t.Fatal(err)
	}
	rb.next(t)
	if s := a.Stats(); s.OpenStreams != 1 {
		t.Fatalf("open streams right after a send = %d, want 1", s.OpenStreams)
	}
	waitFor(t, streamIdle+2*time.Second, "the idle connection to close on both sides", func() bool {
		return a.Stats().OpenStreams == 0 && b.inboundConns() == 0
	})
	a.connMu.Lock()
	entries := len(a.streams)
	a.connMu.Unlock()
	if entries != 0 {
		t.Errorf("%d stream entries left behind an idle close", entries)
	}
	// Two delivery loops per transport remain.
	waitGoroutinesBelow(t, base+4, 2*time.Second)

	// The next send simply dials again.
	if err := a.SendPacket(b.LocalAddr(), []byte("y"), true); err != nil {
		t.Fatal(err)
	}
	if d := rb.next(t); d.payload != "y" {
		t.Fatalf("after the idle close got %q", d.payload)
	}
	if s := a.Stats(); s.StreamDials != 2 || s.StreamDrops != 0 {
		t.Errorf("stats %+v, want 2 dials and no drops", s)
	}
}

// TestOpenStreamsCapped: 200 one-shot destinations are all served while
// the sender never holds more than maxStreams connections.
func TestOpenStreamsCapped(t *testing.T) {
	const dests = 200
	a, _ := newRecorded(t, "127.0.0.1:0")
	got := make(recorder, dests)
	addrs := make([]string, dests)
	for i := range addrs {
		b, err := New("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		b.Run(got.handle)
		addrs[i] = b.LocalAddr()
	}
	for i, addr := range addrs {
		if err := a.SendPacket(addr, []byte(fmt.Sprint(i)), true); err != nil {
			t.Fatal(err)
		}
		if open := a.Stats().OpenStreams; open > maxStreams {
			t.Fatalf("%d open streams after %d sends, cap is %d", open, i+1, maxStreams)
		}
	}
	seen := make(map[string]bool, dests)
	for range addrs {
		seen[got.next(t).payload] = true
	}
	if len(seen) != dests {
		t.Errorf("%d of %d destinations got their message", len(seen), dests)
	}
	if s := a.Stats(); s.StreamDials != dests || s.StreamDrops != 0 || s.OpenStreams > maxStreams {
		t.Errorf("stats %+v, want %d dials, no drops, at most %d open", s, dests, maxStreams)
	}
}

// TestStalledPeerDropsBeyondBacklog: a peer that accepts and never reads
// — the paper's slow member — stalls its connection once the kernel's
// buffers fill. Sends to it then queue up to maxStreamBacklog and are
// dropped and counted beyond; the caller never blocks, and one sender
// goroutine, not one per send, waits on the peer.
func TestStalledPeerDropsBeyondBacklog(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // held open and unread until the listener closes
		}
	}()

	base := runtime.NumGoroutine()
	a, _ := newRecorded(t, "127.0.0.1:0")
	const sends = 100
	payload := bytes.Repeat([]byte{7}, 1<<20) // 100 MB in all: far beyond any socket buffer
	for i := 0; i < sends; i++ {
		start := time.Now()
		if err := a.SendPacket(ln.Addr().String(), payload, true); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("send %d blocked for %v behind a stalled peer", i, d)
		}
	}
	a.connMu.Lock()
	queued := len(a.streams[ln.Addr().String()].queue)
	a.connMu.Unlock()
	s := a.Stats()
	if queued > maxStreamBacklog || s.StreamDrops == 0 || s.StreamDrops < sends/2 {
		t.Errorf("%d queued (cap %d), stats %+v: want the backlog capped and most of %d sends dropped",
			queued, maxStreamBacklog, s, sends)
	}
	// udpLoop, acceptLoop, one sender and one watcher.
	if g := runtime.NumGoroutine(); g > base+4 {
		t.Errorf("%d goroutines above baseline with one stalled peer, want at most 4", g-base)
	}

	// Close must not wait out the stalled write.
	start := time.Now()
	a.Close()
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v behind a stalled peer", d)
	}
}

// TestCloseWithLiveConnections: Close closes the connections it holds
// in both directions instead of leaving each reader to its timeout.
func TestCloseWithLiveConnections(t *testing.T) {
	base := runtime.NumGoroutine()
	a, ra := newRecorded(t, "127.0.0.1:0")
	b, rb := newRecorded(t, "127.0.0.1:0")
	if err := a.SendPacket(b.LocalAddr(), []byte("a->b"), true); err != nil {
		t.Fatal(err)
	}
	if err := b.SendPacket(a.LocalAddr(), []byte("b->a"), true); err != nil {
		t.Fatal(err)
	}
	rb.next(t)
	ra.next(t)
	for _, tr := range []*Transport{a, b} {
		start := time.Now()
		if err := tr.Close(); err != nil {
			t.Error(err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("Close took %v with live connections", d)
		}
	}
	waitGoroutinesBelow(t, base, 2*time.Second)
}

// TestDualStackSourceIsPlainIPv4: a socket bound to all addresses is
// dual-stack and reports an IPv4 peer as ::ffff:a.b.c.d; the handler
// must still see the address the peer advertises.
func TestDualStackSourceIsPlainIPv4(t *testing.T) {
	a, ra := newRecorded(t, "127.0.0.1:0")
	b, rb := newRecorded(t, ":0")
	bAddr := b.udp.LocalAddr().(*net.UDPAddr)
	if bAddr.IP.To4() != nil {
		t.Skip("no dual-stack sockets on this host")
	}
	bLoopback := fmt.Sprintf("127.0.0.1:%d", bAddr.Port)
	if err := a.SendPacket(bLoopback, []byte("4->6"), false); err != nil {
		t.Fatal(err)
	}
	if d := rb.next(t); d.from != a.LocalAddr() {
		t.Errorf("dual-stack transport saw from = %q, want %q", d.from, a.LocalAddr())
	}
	if err := b.SendPacket(a.LocalAddr(), []byte("6->4"), false); err != nil {
		t.Fatal(err)
	}
	if d := ra.next(t); d.from != bLoopback {
		t.Errorf("from = %q, want %q", d.from, bLoopback)
	}
	// The mapped spelling of an IPv4 destination works on an IPv4 socket.
	if err := a.SendPacket(fmt.Sprintf("[::ffff:127.0.0.1]:%d", bAddr.Port), []byte("mapped"), false); err != nil {
		t.Errorf("send to an IPv4-mapped literal: %v", err)
	}
}

// TestHostnameDestination: an address that is not a literal ip:port
// takes the resolving path, on both channels.
func TestHostnameDestination(t *testing.T) {
	a, _ := newRecorded(t, "127.0.0.1:0")
	b, rb := newRecorded(t, "127.0.0.1:0")
	_, port, err := net.SplitHostPort(b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	for _, reliable := range []bool{false, true} {
		if err := a.SendPacket("localhost:"+port, []byte("by name"), reliable); err != nil {
			t.Fatalf("reliable=%v: %v", reliable, err)
		}
		if d := rb.next(t); d.payload != "by name" {
			t.Errorf("reliable=%v: got %q", reliable, d.payload)
		}
	}
}

// TestLargeFrameBufferNotPinned: after a frame larger than a datagram,
// a connection's read buffer is dropped, so an inbound connection the
// sender keeps open pins at most maxPacket bytes while it idles. An
// oversized length prefix still ends the connection, and is counted.
func TestLargeFrameBufferNotPinned(t *testing.T) {
	a, ra := newRecorded(t, "127.0.0.1:0")
	conn, err := net.Dial("tcp", a.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writeRaw := func(size uint32, body []byte) {
		t.Helper()
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], size)
		if _, err := conn.Write(append(hdr[:], body...)); err != nil {
			t.Fatal(err)
		}
	}
	writeRaw(1<<20, make([]byte, 1<<20))
	if d := ra.next(t); len(d.payload) != 1<<20 {
		t.Fatalf("large frame arrived with %d bytes", len(d.payload))
	}
	writeRaw(5, []byte("small"))
	if d := ra.next(t); d.payload != "small" || d.bufCap > maxPacket {
		t.Errorf("small frame after a 1 MB one: %q in a %d-byte buffer, want at most %d",
			d.payload, d.bufCap, maxPacket)
	}
	writeRaw(maxStreamMsg+1, nil)
	waitFor(t, 2*time.Second, "the oversized frame to end the connection", func() bool {
		return a.inboundConns() == 0
	})
	if s := a.Stats(); s.OversizeRejects != 1 {
		t.Errorf("oversize rejects = %d, want 1", s.OversizeRejects)
	}
}

// TestDatagramPathAllocs pins a warmed datagram round — send on one
// transport, read loop and handler on the other — at zero allocations:
// no address is parsed into, or printed from, a heap object per packet.
func TestDatagramPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	a, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := make(chan struct{}, 1)
	b.Run(func(string, []byte) { got <- struct{}{} })
	payload, dst := []byte("ping"), b.LocalAddr()
	round := func() {
		if err := a.SendPacket(dst, payload, false); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	round() // b's read loop learns a's address
	if allocs := testing.AllocsPerRun(1000, round); allocs > 0 {
		t.Errorf("datagram send and delivery allocate %.2f per packet, want 0", allocs)
	}
	if sent, rcvd := a.Stats().DatagramsSent, b.Stats().DatagramsReceived; sent != rcvd || sent < 1000 {
		t.Errorf("datagrams sent %d, received %d", sent, rcvd)
	}
}

// TestReliablePathAllocs pins a reliable send on a live connection:
// starting the sender goroutine is all that may allocate; no dial, no
// connection state, no frame buffer.
func TestReliablePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	a, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := make(chan struct{}, 1)
	b.Run(func(string, []byte) { got <- struct{}{} })
	payload, dst := bytes.Repeat([]byte{1}, 2000), b.LocalAddr()
	round := func() {
		if err := a.SendPacket(dst, payload, true); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	round() // dials
	if allocs := testing.AllocsPerRun(500, round); allocs > 4 {
		t.Errorf("reliable send on a live connection allocates %.2f, want at most 4", allocs)
	}
	if s := a.Stats(); s.StreamDials != 1 || s.StreamReuses < 500 {
		t.Errorf("stats %+v: the pinned sends were not all on the one connection", s)
	}
}
