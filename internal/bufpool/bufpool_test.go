package bufpool

import (
	"bytes"
	"sync"
	"testing"
)

// TestCopyRoundTrip verifies the basic single-owner lifecycle: Copy
// snapshots the source, the copy is independent of later source
// mutation, and Release drops the only reference.
func TestCopyRoundTrip(t *testing.T) {
	src := []byte("payload-one")
	b := Copy(src)
	if !bytes.Equal(b.B, src) {
		t.Fatalf("Copy = %q, want %q", b.B, src)
	}
	if got := b.Refs(); got != 1 {
		t.Fatalf("fresh buffer refs = %d, want 1", got)
	}
	src[0] = 'X'
	if bytes.Equal(b.B, src) {
		t.Fatal("buffer aliases the caller's slice")
	}
	b.Release()
}

// TestAcquireSharesOneBuffer verifies fan-out sharing: every Acquire
// returns the same buffer, the payload stays intact until the last
// reference drops, and intermediate releases do not recycle it.
func TestAcquireSharesOneBuffer(t *testing.T) {
	b := Copy([]byte("shared"))
	for i := 0; i < 7; i++ {
		if got := b.Acquire(); got != b {
			t.Fatal("Acquire returned a different buffer")
		}
	}
	if got := b.Refs(); got != 8 {
		t.Fatalf("refs after 7 acquires = %d, want 8", got)
	}
	for i := 0; i < 7; i++ {
		b.Release()
		if !bytes.Equal(b.B, []byte("shared")) {
			t.Fatalf("payload changed while %d refs outstanding", b.Refs())
		}
	}
	if got := b.Refs(); got != 1 {
		t.Fatalf("refs after 7 releases = %d, want 1", got)
	}
	b.Release()
}

// TestDoubleReleasePanics pins the poison-on-double-release contract:
// releasing more references than are held must fail loudly instead of
// handing the same pooled buffer out twice.
func TestDoubleReleasePanics(t *testing.T) {
	b := Copy([]byte("x"))
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	b.Release()
}

// TestAcquireAfterReleasePanics pins the use-after-release guard: a
// stale reference must not be able to resurrect a buffer the pool may
// already have handed to another packet.
func TestAcquireAfterReleasePanics(t *testing.T) {
	b := Copy([]byte("x"))
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Acquire after Release did not panic")
		}
	}()
	b.Acquire()
}

// TestReuseAfterDrain verifies a drained buffer is safely reusable
// through the pool: the next Copy restarts the count at one regardless
// of which pooled buffer it lands on.
func TestReuseAfterDrain(t *testing.T) {
	b := Copy([]byte("first"))
	b.Acquire()
	b.Release()
	b.Release()
	c := Copy([]byte("second"))
	if got := c.Refs(); got != 1 {
		t.Fatalf("recycled buffer refs = %d, want 1", got)
	}
	if !bytes.Equal(c.B, []byte("second")) {
		t.Fatalf("recycled buffer = %q, want %q", c.B, "second")
	}
	c.Release()
}

// TestClassCapacity: every payload length up to 64 KiB gets a buffer
// that holds it in at most twice its size, or 64 B.
func TestClassCapacity(t *testing.T) {
	for n := 0; n <= 1<<maxShift; n++ {
		b := Get(n)
		if len(b.B) != 0 || cap(b.B) < n || cap(b.B) > max(64, 2*n) {
			t.Fatalf("Get(%d): len %d cap %d, want 0 and %d…%d", n, len(b.B), cap(b.B), n, max(64, 2*n))
		}
		b.Release()
	}
}

// TestReleasedBufferKeepsItsClass: a released buffer only serves
// payloads of its own class, so a small packet never pins the array a
// large one left behind.
func TestReleasedBufferKeepsItsClass(t *testing.T) {
	big := Copy(make([]byte, 4096))
	big.Release()
	small := make([]byte, 100)
	for i := 0; i < 100; i++ {
		b := Copy(small)
		if b == big || cap(b.B) != 128 {
			t.Fatalf("a 100-byte payload got a buffer of capacity %d (the released 4 KiB one: %v)", cap(b.B), b == big)
		}
		b.Release()
	}
}

// TestOversizeNotPooled: a payload over 64 KiB is allocated to its size
// and dropped on release, never handed to the next caller.
func TestOversizeNotPooled(t *testing.T) {
	before := Outstanding()
	n := 1<<maxShift + 1
	b := Copy(make([]byte, n))
	if cap(b.B) != n {
		t.Fatalf("oversize payload of %d: cap %d, want %d", n, cap(b.B), n)
	}
	b.Release()
	for i := 0; i < 10; i++ {
		c := Get(n)
		if c == b {
			t.Fatal("an oversize buffer was pooled")
		}
		c.Release()
	}
	if got := Outstanding(); got != before {
		t.Fatalf("Outstanding = %d after the oversize buffers were released, want %d", got, before)
	}
}

// TestOutstandingCountsHolders: the count rises by one per buffer
// handed out, not per reference, and falls at the last release.
func TestOutstandingCountsHolders(t *testing.T) {
	before := Outstanding()
	a, b := Copy([]byte("a")), Get(3000)
	a.Acquire()
	if got := Outstanding() - before; got != 2 {
		t.Fatalf("two buffers out, Outstanding rose by %d", got)
	}
	a.Release()
	b.Release()
	if got := Outstanding() - before; got != 1 {
		t.Fatalf("one buffer still referenced, Outstanding is %d above its start", got)
	}
	a.Release()
	if got := Outstanding(); got != before {
		t.Fatalf("Outstanding = %d after every release, want %d", got, before)
	}
}

// TestCopyReleaseAllocs: a steady Copy and Release allocates nothing,
// in every class.
func TestCopyReleaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	src := make([]byte, 1<<maxShift)
	for shift := minShift; shift <= maxShift; shift++ {
		for _, n := range []int{1<<(shift-1) + 1, 1 << shift} {
			payload := src[:n]
			Copy(payload).Release()
			if allocs := testing.AllocsPerRun(100, func() { Copy(payload).Release() }); allocs != 0 {
				t.Errorf("Copy and Release of %d bytes allocate %.1f times, want 0", n, allocs)
			}
		}
	}
}

// TestConcurrentClasses shares buffers of every class across
// goroutines — each Get handed to a second goroutine through Acquire,
// both releasing — so the race detector sees the pools, the counts and
// the reference counting under contention. Every payload must arrive
// intact and every buffer come back.
func TestConcurrentClasses(t *testing.T) {
	before := Outstanding()
	const workers, rounds = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		shared := make(chan *Buf, 16)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for b := range shared {
				if len(b.B) > 0 && b.B[len(b.B)-1] != byte(len(b.B)) {
					t.Errorf("payload of %d corrupted", len(b.B))
				}
				b.Release()
			}
		}()
		go func(w int) {
			defer wg.Done()
			defer close(shared)
			for i := 0; i < rounds; i++ {
				n := (i*131 + w*7919) % (1<<maxShift + 100)
				b := Get(n)
				b.B = b.B[:n]
				if n > 0 {
					b.B[n-1] = byte(n)
				}
				shared <- b.Acquire()
				b.Release()
			}
		}(w)
	}
	wg.Wait()
	if got := Outstanding(); got != before {
		t.Fatalf("Outstanding = %d after every worker finished, want %d", got, before)
	}
}
