// Package suspicion implements the suspicion timer used by SWIM's
// Suspicion subprotocol and Lifeguard's Local Health Aware Suspicion
// (LHA-Suspicion, §IV-B).
//
// A Suspicion starts with a timeout of Max and decays toward Min as
// independent suspicions (suspect messages about the same member from
// distinct accusers) are confirmed:
//
//	timeout = max(Min, Max − (Max−Min)·log(C+1)/log(K+1))
//
// where C is the number of independent confirmations processed and K the
// number required to reach Min. A member that is processing gossip in a
// timely manner quickly collects confirmations and converges to Min; a
// member that is not leaves the timeout high, buying time for a
// refutation it has not yet processed. With K = 0 the timer is the fixed
// SWIM timeout (Min) from the start.
package suspicion

import (
	"math"
	"sync"
	"time"

	"lifeguard/internal/timeutil"
)

// Suspicion is a single member's suspicion timer.
//
// Suspicion is safe for concurrent use.
type Suspicion struct {
	mu sync.Mutex

	clock timeutil.Clock

	// k is the number of independent confirmations that drive the
	// timeout to min.
	k int

	// min and max bound the timeout.
	min, max time.Duration

	// start is when the suspicion was raised.
	start time.Time

	// confirmations records the distinct accusers counted, the original
	// one first: at most k+1 names (see Confirm). A small slice with
	// linear-scan dedup, because a suspicion is born on the protocol hot
	// path, where the map this used to be cost two allocations per
	// suspicion.
	confirmations []string

	// timer is the pending expiry callback.
	timer timeutil.Timer

	// fired records that the timeout callback ran (or is running), so a
	// late Confirm cannot re-arm it.
	fired bool

	// stopped records that Stop was called.
	stopped bool

	// timeoutFn is invoked exactly once on expiry with the number of
	// independent confirmations that had been processed.
	timeoutFn func(confirmations int)
}

// New starts a suspicion raised by `from` about some member. clock drives
// the timer; k, min and max parameterize the decay; fn runs once when the
// suspicion times out without having been stopped (i.e. the member is to
// be declared dead).
//
// With k == 0, or min >= max, the timeout is fixed at min.
func New(clock timeutil.Clock, from string, k int, min, max time.Duration, fn func(confirmations int)) *Suspicion {
	s := &Suspicion{
		clock:         clock,
		k:             k,
		min:           min,
		max:           max,
		start:         clock.Now(),
		confirmations: append(make([]string, 0, 4), from),
		timeoutFn:     fn,
	}
	s.timer = clock.AfterFunc(s.remainingLocked(), s.expire)
	return s
}

// Timeout computes the suspicion timeout for c confirmations out of k
// needed, bounded by [min, max]. Exported for tests and for computing the
// paper's timeout table without a live timer.
func Timeout(k, c int, min, max time.Duration) time.Duration {
	if k < 1 || min >= max {
		return min
	}
	frac := math.Log(float64(c)+1) / math.Log(float64(k)+1)
	timeout := time.Duration(float64(max) - frac*float64(max-min))
	if timeout < min {
		timeout = min
	}
	return timeout
}

// remainingLocked returns the time left until expiry given the current
// confirmation count. May be negative if the deadline has already passed.
func (s *Suspicion) remainingLocked() time.Duration {
	// The original accuser does not count as an *independent*
	// confirmation.
	c := len(s.confirmations) - 1
	deadline := s.start.Add(Timeout(s.k, c, s.min, s.max))
	return deadline.Sub(s.clock.Now())
}

func (s *Suspicion) expire() {
	s.mu.Lock()
	if s.fired || s.stopped {
		s.mu.Unlock()
		return
	}
	s.fired = true
	c := len(s.confirmations) - 1
	fn := s.timeoutFn
	s.mu.Unlock()
	fn(c)
}

// Confirm processes a suspect message about the same member from the
// given accuser. It reports whether the accuser was new and counted (an
// independent confirmation). New confirmations shrink the timeout; if
// the new deadline has already passed the timeout fires immediately.
//
// Once k confirmations have been counted the timeout sits at min and
// further accusers change nothing, so they are not recorded either:
// the accuser list holds at most k+1 names however many distinct
// accusers a peer cares to send.
func (s *Suspicion) Confirm(from string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fired || s.stopped || len(s.confirmations)-1 >= s.k {
		return false
	}
	for _, name := range s.confirmations {
		if name == from {
			return false
		}
	}
	s.confirmations = append(s.confirmations, from)

	// Re-arm for the remaining time under the reduced timeout. A
	// deadline already in the past fires via a zero-delay timer rather
	// than inline: callers (the protocol core) invoke Confirm with
	// their own lock held, and the expiry callback re-enters them. On
	// the real clock the previous arm's callback may already be on its
	// way; the fired flag makes whichever call comes second a no-op.
	s.timer.Reset(max(s.remainingLocked(), 0))
	return true
}

// Stop cancels the suspicion (the member was refuted or declared dead by
// other means). It reports whether the timeout had not yet fired.
func (s *Suspicion) Stop() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fired || s.stopped {
		return false
	}
	s.stopped = true
	if s.timer != nil {
		s.timer.Stop()
	}
	return true
}
