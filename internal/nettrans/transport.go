// Package nettrans is the production transport for the protocol core:
// UDP datagrams for failure-detector and gossip traffic, with a TCP side
// channel for reliable messages (push-pull anti-entropy and the fallback
// direct probe), mirroring memberlist's transport split (§III-B of the
// paper).
package nettrans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"lifeguard/internal/bufpool"
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
)

// ErrPayloadTooLarge is returned by SendPacket for payloads that exceed
// maxStreamMsg: a receiver would drop the connection unread, so the
// send is rejected up front instead of silently black-holing bytes.
var ErrPayloadTooLarge = errors.New("nettrans: payload exceeds max stream message size")

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

	mu      sync.Mutex
	handler PacketHandler
	closed  bool

	wg sync.WaitGroup
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
	t.mu.Lock()
	t.handler = handler
	t.mu.Unlock()

	t.wg.Add(2)
	go t.udpLoop()
	go t.acceptLoop()
}

// Close shuts the sockets down and waits for delivery loops to exit.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()

	udpErr := t.udp.Close()
	tcpErr := t.tcp.Close()
	t.wg.Wait()
	return errors.Join(udpErr, tcpErr)
}

func (t *Transport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

func (t *Transport) deliver(from string, payload []byte) {
	t.mu.Lock()
	h := t.handler
	t.mu.Unlock()
	if h != nil {
		h(from, payload)
	}
}

// SendPacket sends payload to addr. Unreliable sends go as a single UDP
// datagram; reliable sends open a short-lived TCP connection with
// length-prefixed framing. Reliable sends run asynchronously so the
// protocol core never blocks on a dial.
func (t *Transport) SendPacket(addr string, payload []byte, reliable bool) error {
	if t.isClosed() {
		return errors.New("nettrans: transport closed")
	}
	if len(payload) > maxStreamMsg {
		return fmt.Errorf("%w (%d > %d bytes)", ErrPayloadTooLarge, len(payload), maxStreamMsg)
	}
	if !reliable && len(payload) <= maxPacket {
		udpAddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return fmt.Errorf("nettrans: resolve %q: %w", addr, err)
		}
		if _, err := t.udp.WriteToUDP(payload, udpAddr); err != nil {
			return fmt.Errorf("nettrans: udp send to %q: %w", addr, err)
		}
		return nil
	}

	// Reliable (or oversized) path: fire-and-forget stream send. The
	// payload must be copied before the goroutine detaches — the caller
	// only guarantees it for the duration of this call. The failure
	// detector is the loss handler, exactly as for UDP.
	buf := bufpool.Copy(payload)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		defer buf.Release()
		if err := t.sendStream(addr, buf.B); err != nil && !t.isClosed() {
			// Nothing to do: a lost reliable packet looks like a lost
			// UDP packet to the protocol.
			_ = err
		}
	}()
	return nil
}

func (t *Transport) sendStream(addr string, payload []byte) error {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("nettrans: dial %q: %w", addr, err)
	}
	defer conn.Close()
	if err := conn.SetWriteDeadline(time.Now().Add(ioTimeout)); err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return fmt.Errorf("nettrans: stream header to %q: %w", addr, err)
	}
	if _, err := conn.Write(payload); err != nil {
		return fmt.Errorf("nettrans: stream body to %q: %w", addr, err)
	}
	return nil
}

func (t *Transport) udpLoop() {
	defer t.wg.Done()
	buf := make([]byte, maxPacket)
	for {
		n, from, err := t.udp.ReadFromUDP(buf)
		if err != nil {
			// A closed socket is terminal even when the transport as a
			// whole hasn't shut down (the e2e harness kills sockets out
			// from under live transports); any other persistent error
			// must not hot-spin the loop.
			if t.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(time.Millisecond)
			continue
		}
		// Delivery is synchronous and the handler does not retain the
		// payload (PacketHandler contract), so the read buffer is handed
		// over directly and reused for the next datagram.
		t.deliver(from.String(), buf[:n])
	}
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.tcp.Accept()
		if err != nil {
			if t.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(time.Millisecond)
			continue
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer conn.Close()
			t.serveStream(conn)
		}()
	}
}

// serveStream reads length-prefixed messages until EOF or error, reusing
// one read buffer across messages (the handler does not retain payloads).
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
	}
}
