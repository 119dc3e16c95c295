// Package timeutil defines the clock abstraction shared by the protocol
// core and its two runtimes: the real-time runtime (wall clock) and the
// discrete-event simulator (virtual clock).
//
// The protocol core never calls time.Now or time.AfterFunc directly; it
// receives a Clock so that experiments can run on virtual time,
// deterministically and orders of magnitude faster than wall time.
//
// AfterFunc is the only timer constructor. A caller that arms the same
// callback repeatedly (a protocol tick, a probe round's deadlines) keeps
// the Timer and re-arms it with Reset instead of constructing a new one
// per arm.
//
// Reset reports what Stop would have: whether the previous arm was still
// pending and is now cancelled. On the simulated clocks false means the
// callback has run (or was stopped). On RealClock false can also mean the
// callback has been started in its own goroutine and not yet got as far
// as the caller's lock: that call still arrives, after the Reset, next to
// the one the new arm will make. A caller that shares state between arms
// must therefore treat false as "a callback may be in flight" unless it
// has itself seen the previous arm's callback enter (internal/core's
// probe-round records are the example: they are reused only when both
// timers are provably quiet).
package timeutil

import "time"

// Clock supplies the current time and one-shot timers.
//
// Implementations must be safe for concurrent use. Callbacks registered
// with AfterFunc may run concurrently with other callbacks under the real
// clock; under the simulated clock they run sequentially on the event
// loop.
type Clock interface {
	// Now returns the current time.
	Now() time.Time

	// AfterFunc arranges for f to be called once, d from now. It returns
	// a Timer that can cancel the call.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a handle to a pending AfterFunc callback.
type Timer interface {
	// Stop cancels the pending call. It reports whether the call was
	// still pending (true) or had already fired or been stopped (false).
	Stop() bool

	// Reset re-arms the timer to call the AfterFunc's f once, d from
	// now, whether the previous arm is pending, has fired or was
	// stopped. It reports what Stop would have (see the package comment
	// for what false means on the real clock).
	Reset(d time.Duration) bool
}

// RealClock is a Clock backed by the time package. The zero value is
// ready to use.
type RealClock struct{}

var _ Clock = RealClock{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (RealClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

type realTimer struct{ t *time.Timer }

func (r realTimer) Stop() bool { return r.t.Stop() }

func (r realTimer) Reset(d time.Duration) bool { return r.t.Reset(d) }
