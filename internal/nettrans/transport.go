// Package nettrans is the production transport for the protocol core:
// UDP datagrams for failure-detector and gossip traffic, with a TCP side
// channel for reliable messages (push-pull anti-entropy and the fallback
// direct probe), mirroring memberlist's transport split (§III-B of the
// paper). Reliable messages to one destination share one outbound
// connection, opened on demand and closed when idle (stream.go).
package nettrans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// maxPacket bounds a single UDP datagram read.
	maxPacket = 65535

	// maxStreamMsg bounds a framed TCP message (push-pull tables can
	// exceed the UDP MTU comfortably, but not this).
	maxStreamMsg = 10 << 20

	// dialTimeout bounds a reliable send's connection attempt.
	dialTimeout = 5 * time.Second

	// ioTimeout bounds individual stream reads/writes.
	ioTimeout = 10 * time.Second

	// maxFromCache bounds the UDP read loop's source-address strings.
	maxFromCache = 1024
)

// ErrPayloadTooLarge is returned by SendPacket for payloads that exceed
// maxStreamMsg: a receiver would drop the connection unread, so the
// send is rejected up front instead of silently black-holing bytes.
var ErrPayloadTooLarge = errors.New("nettrans: payload exceeds max stream message size")

var errClosed = errors.New("nettrans: transport closed")

// PacketHandler consumes one inbound packet. The payload is only valid
// for the duration of the call: the delivery loops reuse their read
// buffers. Handlers that retain the payload must copy it (the protocol
// core's HandlePacket decodes into owned messages and retains nothing).
type PacketHandler func(from string, payload []byte)

// Transport moves packets over UDP and framed TCP. Create it with New,
// start delivery with Run, and Close it on shutdown.
//
// Transport is safe for concurrent use.
type Transport struct {
	udp *net.UDPConn
	tcp *net.TCPListener

	advertise string

	handler atomic.Pointer[PacketHandler]
	closed  atomic.Bool
	stats   counters

	// connMu guards every TCP connection the transport holds: the
	// per-destination streams with their queues, and the accepted
	// inbound connections. It is never held across a dial, read or write.
	connMu  sync.Mutex
	streams map[string]*stream
	inbound map[net.Conn]struct{}
	useTick uint64 // stamps stream.used, for least-recently-used eviction

	wg sync.WaitGroup
}

// counters are the transport's running totals; Stats snapshots them.
type counters struct {
	datagramsSent, datagramsReceived atomic.Uint64
	bytesSent                        atomic.Uint64

	streamDials, streamDialErrors    atomic.Uint64
	streamReuses, streamStaleRedials atomic.Uint64
	streamDrops, oversizeRejects     atomic.Uint64
	openStreams                      atomic.Int64
}

// Stats is a snapshot of a Transport's counters since New, plus the
// number of outbound connections open now. StreamReuses /
// (StreamDials + StreamReuses) is the share of reliable sends that
// found their connection already open.
type Stats struct {
	DatagramsSent     uint64 // UDP datagrams written
	DatagramsReceived uint64 // UDP datagrams delivered to the handler
	BytesSent         uint64 // payload bytes of datagrams written and frames queued

	StreamDials        uint64 // outbound TCP connections opened
	StreamDialErrors   uint64 // dials that failed (the frame is also a drop)
	StreamReuses       uint64 // frames written to an already open connection
	StreamStaleRedials uint64 // open connections found dead on write and redialled
	StreamDrops        uint64 // reliable sends lost: backlog full, dial or write failed
	OversizeRejects    uint64 // sends refused and inbound frames over maxStreamMsg

	OpenStreams int // outbound connections open now
}

// Stats returns the transport's counters. It is safe to call at any
// time, including after Close.
func (t *Transport) Stats() Stats {
	c := &t.stats
	return Stats{
		DatagramsSent:      c.datagramsSent.Load(),
		DatagramsReceived:  c.datagramsReceived.Load(),
		BytesSent:          c.bytesSent.Load(),
		StreamDials:        c.streamDials.Load(),
		StreamDialErrors:   c.streamDialErrors.Load(),
		StreamReuses:       c.streamReuses.Load(),
		StreamStaleRedials: c.streamStaleRedials.Load(),
		StreamDrops:        c.streamDrops.Load(),
		OversizeRejects:    c.oversizeRejects.Load(),
		OpenStreams:        int(c.openStreams.Load()),
	}
}

// bindAttempts bounds how many UDP/TCP port pairs New tries when the
// caller asked for port 0.
const bindAttempts = 32

// New binds a UDP socket and a TCP listener on bindAddr ("host:port")
// and advertises the one port both hold. With port 0 the kernel chooses
// the UDP port without regard to TCP, so something else — typically an
// outbound connection's ephemeral source port — may already hold it on
// the TCP side; any pair will do, so New then retries with a fresh one.
// An explicit port fails on the first error.
func New(bindAddr string) (*Transport, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", bindAddr)
	if err != nil {
		return nil, fmt.Errorf("nettrans: resolve %q: %w", bindAddr, err)
	}
	for attempt := 1; ; attempt++ {
		udp, err := net.ListenUDP("udp", udpAddr)
		if err != nil {
			return nil, fmt.Errorf("nettrans: listen udp %q: %w", bindAddr, err)
		}
		// Bind TCP on the port UDP actually got, so one advertised
		// address serves both channels.
		actual := udp.LocalAddr().(*net.UDPAddr)
		tcpAddr := &net.TCPAddr{IP: actual.IP, Port: actual.Port}
		tcp, err := net.ListenTCP("tcp", tcpAddr)
		if err == nil {
			return &Transport{
				udp:       udp,
				tcp:       tcp,
				advertise: actual.String(),
				streams:   make(map[string]*stream),
				inbound:   make(map[net.Conn]struct{}),
			}, nil
		}
		udp.Close()
		if udpAddr.Port != 0 || attempt == bindAttempts || !errors.Is(err, syscall.EADDRINUSE) {
			return nil, fmt.Errorf("nettrans: listen tcp %v: %w", tcpAddr, err)
		}
	}
}

// LocalAddr returns the transport's advertised address.
func (t *Transport) LocalAddr() string { return t.advertise }

// Run starts the delivery loops, invoking handler for each inbound
// packet (possibly concurrently). It returns immediately.
func (t *Transport) Run(handler PacketHandler) {
	t.handler.Store(&handler)

	t.wg.Add(2)
	go t.udpLoop()
	go t.acceptLoop()
}

// Close shuts the sockets down, closes every TCP connection in either
// direction, and waits for the delivery loops and in-flight sends to
// exit. An idle connection left open would hold its reader — the
// peer's serveStream or ours — until ioTimeout.
func (t *Transport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Everything that registers a connection checks closed under connMu,
	// so nothing can be added behind this sweep. The goroutines reading
	// the connections do the bookkeeping when their reads fail.
	t.connMu.Lock()
	for _, s := range t.streams {
		if s.conn != nil {
			s.conn.Close()
		}
	}
	for conn := range t.inbound {
		conn.Close()
	}
	t.connMu.Unlock()

	udpErr := t.udp.Close()
	tcpErr := t.tcp.Close()
	t.wg.Wait()
	return errors.Join(udpErr, tcpErr)
}

func (t *Transport) deliver(from string, payload []byte) {
	if h := t.handler.Load(); h != nil {
		(*h)(from, payload)
	}
}

// SendPacket sends payload to addr. Unreliable sends go as a single UDP
// datagram. Reliable sends (and payloads too large for a datagram) go
// as one length-prefixed frame on the TCP connection to addr; they are
// queued and written asynchronously, so the protocol core never blocks
// on a dial or a slow peer, and frames to one addr are written in the
// order they were sent. A reliable send that cannot be delivered is
// counted in Stats and otherwise looks like a lost datagram: the
// failure detector is the loss handler.
func (t *Transport) SendPacket(addr string, payload []byte, reliable bool) error {
	if t.closed.Load() {
		return errClosed
	}
	if len(payload) > maxStreamMsg {
		t.stats.oversizeRejects.Add(1)
		return fmt.Errorf("%w (%d > %d bytes)", ErrPayloadTooLarge, len(payload), maxStreamMsg)
	}
	if reliable || len(payload) > maxPacket {
		return t.queueFrame(addr, payload)
	}

	var err error
	if ap, perr := netip.ParseAddrPort(addr); perr == nil {
		_, err = t.udp.WriteToUDPAddrPort(payload, unmap(ap))
	} else {
		// Not a literal ip:port (a hostname given to -join): resolved on
		// every send, so a DNS answer is never cached.
		var udpAddr *net.UDPAddr
		if udpAddr, err = net.ResolveUDPAddr("udp", addr); err != nil {
			return fmt.Errorf("nettrans: resolve %q: %w", addr, err)
		}
		_, err = t.udp.WriteToUDP(payload, udpAddr)
	}
	if err != nil {
		return fmt.Errorf("nettrans: udp send to %q: %w", addr, err)
	}
	t.stats.datagramsSent.Add(1)
	t.stats.bytesSent.Add(uint64(len(payload)))
	return nil
}

// unmap turns an IPv4-mapped IPv6 address (::ffff:a.b.c.d) into plain
// IPv4. A dual-stack socket reports IPv4 peers in the mapped form, while
// members advertise, and an IPv4 socket only accepts, the plain one.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

func (t *Transport) udpLoop() {
	defer t.wg.Done()
	buf := make([]byte, maxPacket)
	// The from string of each source seen, so a datagram from a known
	// peer allocates nothing. Cleared when full: a flood of distinct
	// sources then costs one string per datagram, not unbounded memory.
	froms := make(map[netip.AddrPort]string)
	for {
		n, src, err := t.udp.ReadFromUDPAddrPort(buf)
		if err != nil {
			// A closed socket is terminal even when the transport as a
			// whole hasn't shut down (the e2e harness kills sockets out
			// from under live transports); any other persistent error
			// must not hot-spin the loop.
			if t.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(time.Millisecond)
			continue
		}
		from, ok := froms[src]
		if !ok {
			if len(froms) >= maxFromCache {
				clear(froms)
			}
			from = unmap(src).String()
			froms[src] = from
		}
		t.stats.datagramsReceived.Add(1)
		// Delivery is synchronous and the handler does not retain the
		// payload (PacketHandler contract), so the read buffer is handed
		// over directly and reused for the next datagram.
		t.deliver(from, buf[:n])
	}
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.tcp.Accept()
		if err != nil {
			if t.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(time.Millisecond)
			continue
		}
		t.connMu.Lock()
		if t.closed.Load() {
			t.connMu.Unlock()
			conn.Close()
			continue
		}
		t.inbound[conn] = struct{}{}
		t.connMu.Unlock()

		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.serveStream(conn)
			conn.Close()
			t.connMu.Lock()
			delete(t.inbound, conn)
			t.connMu.Unlock()
		}()
	}
}

// serveStream reads length-prefixed messages until EOF or error, reusing
// one read buffer across messages (the handler does not retain payloads).
// The sender closes a connection it has not used for streamIdle; the
// read deadline is the backstop for one that never does.
func (t *Transport) serveStream(conn net.Conn) {
	from := conn.RemoteAddr().String()
	var payload []byte
	for {
		if err := conn.SetReadDeadline(time.Now().Add(ioTimeout)); err != nil {
			return
		}
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(hdr[:])
		if size > maxStreamMsg {
			t.stats.oversizeRejects.Add(1)
			return
		}
		if uint32(cap(payload)) < size {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		if _, err := io.ReadFull(conn, payload); err != nil {
			return
		}
		t.deliver(from, payload)
		if cap(payload) > maxPacket {
			// One large table must not stay pinned for as long as the
			// sender keeps the connection open.
			payload = nil
		}
	}
}
