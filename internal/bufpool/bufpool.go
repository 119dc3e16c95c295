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
//
// Buffers are pooled by capacity class: the powers of two from 64 B to
// 64 KiB, one pool each. A payload takes the smallest class that fits
// it, and a released buffer only ever serves payloads of its own class:
// a 40 B ack never rides in the 4 KiB array a push-pull table left
// behind. A payload over 64 KiB gets an array of exactly its size,
// which is not pooled. So a queued packet pins at most twice its size,
// or 64 B. Outstanding counts the buffers handed out and not yet
// returned.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Buf is a pooled byte buffer. B holds the payload; it is read-only
// while more than one reference is outstanding.
type Buf struct {
	B []byte

	// refs counts outstanding owners. Get starts it at one; Acquire
	// and Release move it up and down, and the buffer returns to the
	// pool when it hits zero. A released buffer's count stays at zero
	// until the pool recycles it through Get, so Acquire and Release
	// on a stale reference are detected instead of aliasing the next
	// packet's payload.
	refs atomic.Int32
}

// The capacity classes are 1<<minShift … 1<<maxShift bytes.
const (
	minShift   = 6
	maxShift   = 16
	numClasses = maxShift - minShift + 1
)

var (
	pools [numClasses]sync.Pool

	// outstanding counts buffers handed out by Get whose last
	// reference has not been released.
	outstanding atomic.Int64
)

// class returns the index of the smallest class holding n bytes, or -1
// when n is over the largest.
func class(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	if n > 1<<maxShift {
		return -1
	}
	return bits.Len(uint(n-1)) - minShift
}

// Get returns an empty buffer with room for n bytes, with one reference
// owned by the caller: a pooled buffer of the smallest class that fits,
// or, over 64 KiB, a fresh one of capacity n that Release drops.
func Get(n int) *Buf {
	var b *Buf
	if c := class(n); c < 0 {
		b = &Buf{B: make([]byte, 0, n)}
	} else if v := pools[c].Get(); v != nil {
		b = v.(*Buf)
		b.B = b.B[:0]
	} else {
		b = &Buf{B: make([]byte, 0, 1<<(c+minShift))}
	}
	b.refs.Store(1)
	outstanding.Add(1)
	return b
}

// Copy returns a buffer holding a copy of src, with one reference owned
// by the caller.
func Copy(src []byte) *Buf {
	b := Get(len(src))
	b.B = append(b.B, src...)
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
// the pool of its class, if its capacity is exactly a class (a holder
// that appended past it, or an over-64 KiB buffer, is left to the
// collector). The caller must not use B afterwards. Releasing more
// references than were held panics rather than handing the same buffer
// out twice.
func (b *Buf) Release() {
	n := b.refs.Add(-1)
	if n < 0 {
		panic("bufpool: double Release")
	}
	if n == 0 {
		outstanding.Add(-1)
		size := cap(b.B)
		if c := class(size); c >= 0 && size == 1<<(c+minShift) {
			pools[c].Put(b)
		}
	}
}

// Refs reports the current reference count, for tests.
func (b *Buf) Refs() int { return int(b.refs.Load()) }

// Outstanding reports how many buffers have been handed out and not
// yet released by their last holder — zero, or its value before a run,
// once every packet of the run has been consumed or dropped.
func Outstanding() int64 { return outstanding.Load() }
