package nettrans

import (
	"encoding/binary"
	"net"
	"time"

	"lifeguard/internal/bufpool"
)

// The bounds on outbound connections are constants, not options: no
// caller has needed a second value, and each is chosen against another
// constant here rather than against a deployment.
const (
	// streamIdle is how long an outbound connection may go unused before
	// its watcher closes it. Far below the receiver's ioTimeout, so the
	// sender is always the side that closes first, and short enough that
	// a quiet member (one push-pull per 30 s) holds no connections.
	streamIdle = time.Second

	// maxStreams bounds the outbound connections a transport holds open.
	// Opening one more closes the least recently used idle one first.
	maxStreams = 64

	// maxStreamBacklog bounds the frames queued for one destination.
	// Beyond it a send is dropped like a lost datagram, so a peer that
	// has stopped reading delays only its own traffic.
	maxStreamBacklog = 16
)

// stream is the sender state for one destination address: the frames
// waiting to be written and at most one open connection. It is in
// Transport.streams exactly while it has a connection or a running
// sender. All fields are guarded by Transport.connMu.
type stream struct {
	addr    string
	conn    net.Conn       // nil until dialled and after it is dropped
	queue   []*bufpool.Buf // framed payloads, oldest first
	sending bool           // a runStream goroutine is draining queue
	used    uint64         // Transport.useTick at the last send
}

// queueFrame queues payload, framed, for addr and returns at once; a
// sender goroutine is started if the destination has none running.
func (t *Transport) queueFrame(addr string, payload []byte) error {
	// The caller only guarantees payload for the duration of this call.
	frame := bufpool.Get(4 + len(payload))
	frame.B = binary.BigEndian.AppendUint32(frame.B, uint32(len(payload)))
	frame.B = append(frame.B, payload...)

	t.connMu.Lock()
	defer t.connMu.Unlock()
	// Checked under connMu so that Close, which sets closed before its
	// sweep takes connMu, cannot reach wg.Wait with this wg.Add pending.
	if t.closed.Load() {
		frame.Release()
		return errClosed
	}
	s := t.streams[addr]
	if s == nil {
		s = &stream{addr: addr}
		t.streams[addr] = s
	}
	if len(s.queue) >= maxStreamBacklog {
		frame.Release()
		t.stats.streamDrops.Add(1)
		return nil
	}
	s.queue = append(s.queue, frame)
	t.stats.bytesSent.Add(uint64(len(payload)))
	if !s.sending {
		s.sending = true
		t.wg.Add(1)
		go t.runStream(s)
	}
	return nil
}

// runStream writes s's queued frames in order and exits when the queue
// is empty, leaving the connection to its watcher.
func (t *Transport) runStream(s *stream) {
	defer t.wg.Done()
	for {
		t.connMu.Lock()
		if t.closed.Load() {
			for _, frame := range s.queue {
				frame.Release()
			}
			s.queue = s.queue[:0]
		}
		if len(s.queue) == 0 {
			s.sending = false
			if s.conn == nil {
				delete(t.streams, s.addr)
			}
			t.connMu.Unlock()
			return
		}
		frame := s.queue[0]
		n := copy(s.queue, s.queue[1:])
		s.queue[n] = nil
		s.queue = s.queue[:n]
		conn := s.conn
		t.useTick++
		s.used = t.useTick
		t.connMu.Unlock()

		if !t.writeTo(s, conn, frame.B) {
			t.stats.streamDrops.Add(1)
		}
		frame.Release()
	}
}

// writeTo writes one frame to s over conn, its open connection, or over
// a fresh one when conn is nil. An open connection that fails the write
// is replaced once and the whole frame sent again: the peer may have
// restarted, or the idle watcher may have closed it as the write began.
// A frame that fails on a fresh connection is lost.
func (t *Transport) writeTo(s *stream, conn net.Conn, frame []byte) bool {
	if conn != nil {
		if writeFrame(conn, frame) == nil {
			t.stats.streamReuses.Add(1)
			return true
		}
		t.dropConn(s, conn)
		t.stats.streamStaleRedials.Add(1)
	}
	conn, kept := t.dial(s)
	if conn == nil {
		return false
	}
	err := writeFrame(conn, frame)
	if !kept {
		conn.Close()
	} else if err != nil {
		t.dropConn(s, conn)
	}
	return err == nil
}

// writeFrame writes a length-prefixed frame in one write, bounded by
// ioTimeout. The read deadline is what the connection's watcher waits
// on: it is pushed out of the write's way first, and the idle period
// starts when the write ends.
func writeFrame(conn net.Conn, frame []byte) error {
	if err := conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return err
	}
	_, err := conn.Write(frame)
	// Fails only on a connection already closed, which its watcher drops.
	_ = conn.SetReadDeadline(time.Now().Add(streamIdle))
	return err
}

// dial opens a connection to s.addr and, room permitting, keeps it as
// s.conn with a watcher. At maxStreams the least recently used idle
// connection makes room; if every one is mid-send, the new connection
// is returned with kept false, for the caller to close after its frame.
// It returns nil if the dial fails or the transport closed meanwhile.
func (t *Transport) dial(s *stream) (conn net.Conn, kept bool) {
	conn, err := net.DialTimeout("tcp", s.addr, dialTimeout)
	if err != nil {
		t.stats.streamDialErrors.Add(1)
		return nil, false
	}
	t.stats.streamDials.Add(1)

	t.connMu.Lock()
	defer t.connMu.Unlock()
	if t.closed.Load() {
		conn.Close()
		return nil, false
	}
	if int(t.stats.openStreams.Load()) >= maxStreams {
		var lru *stream
		for _, o := range t.streams {
			if o.conn != nil && !o.sending && (lru == nil || o.used < lru.used) {
				lru = o
			}
		}
		if lru == nil {
			return conn, false
		}
		// Its watcher's read fails on the closed connection and finds
		// nothing left to do.
		lru.conn.Close()
		t.forgetConnLocked(lru)
	}
	s.conn = conn
	t.stats.openStreams.Add(1)
	t.wg.Add(1)
	go t.watch(s, conn)
	return conn, true
}

// watch blocks reading the outbound side of conn, where the peer never
// writes, and drops the connection when the read returns: EOF or a
// reset means the peer closed, crashed or restarted, noticed when its
// FIN arrives instead of by a lost frame; a timeout means no send has
// re-armed the deadline for streamIdle; a byte is a protocol error.
func (t *Transport) watch(s *stream, conn net.Conn) {
	defer t.wg.Done()
	var b [1]byte
	_, _ = conn.Read(b[:])
	t.dropConn(s, conn)
}

// dropConn closes conn and, if it is still s's connection, forgets it.
func (t *Transport) dropConn(s *stream, conn net.Conn) {
	conn.Close()
	t.connMu.Lock()
	if s.conn == conn {
		t.forgetConnLocked(s)
	}
	t.connMu.Unlock()
}

// forgetConnLocked clears s's connection, already closed by the caller.
func (t *Transport) forgetConnLocked(s *stream) {
	s.conn = nil
	t.stats.openStreams.Add(-1)
	if !s.sending {
		delete(t.streams, s.addr)
	}
}
