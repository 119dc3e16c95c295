// Package bufpool provides pooled, reference-counted byte buffers for
// packet payloads at ownership boundaries: the core's Transport contract
// hands transports a payload that is valid only for the duration of the
// SendPacket call, so a transport that queues, schedules or ships the
// payload asynchronously copies it into a pooled buffer and releases the
// buffer once the packet has been consumed.
//
// The reference count is what makes fan-out delivery zero-copy: a sender
// copies the caller's payload exactly once and hands the same buffer to
// every destination, each holding one reference (Acquire per extra
// destination), and the buffer returns to the pool when the last
// consumer releases it. Holders must treat B as read-only whenever more
// than one reference is outstanding.
package bufpool

import (
	"sync"
	"sync/atomic"
)

// Buf is a pooled byte buffer. B holds the payload; it is read-only
// while more than one reference is outstanding.
type Buf struct {
	B []byte

	// refs counts outstanding owners. Copy starts it at one; Acquire
	// and Release move it up and down, and the buffer returns to the
	// pool when it hits zero. A released buffer's count stays at zero
	// until the pool recycles it through Copy, so Acquire and Release
	// on a stale reference are detected instead of aliasing the next
	// packet's payload.
	refs atomic.Int32
}

var pool = sync.Pool{New: func() any { return new(Buf) }}

// Copy returns a pooled buffer holding a copy of src, with one
// reference owned by the caller.
func Copy(src []byte) *Buf {
	b := pool.Get().(*Buf)
	b.B = append(b.B[:0], src...)
	b.refs.Store(1)
	return b
}

// Acquire adds a reference for one additional consumer and returns b.
// Acquiring a buffer whose references have already drained to zero is a
// use-after-release — the buffer may be carrying someone else's payload
// by now — and panics.
func (b *Buf) Acquire() *Buf {
	if n := b.refs.Add(1); n <= 1 {
		panic("bufpool: Acquire of released buffer")
	}
	return b
}

// Release drops one reference; the last release returns the buffer to
// the pool. The caller must not use B afterwards. Releasing more
// references than were held panics rather than handing the same buffer
// out twice.
func (b *Buf) Release() {
	n := b.refs.Add(-1)
	if n < 0 {
		panic("bufpool: double Release")
	}
	if n == 0 {
		pool.Put(b)
	}
}

// Refs reports the current reference count, for tests.
func (b *Buf) Refs() int { return int(b.refs.Load()) }
