package experiment

import (
	"math/rand"
	"time"

	"lifeguard/internal/metrics"
)

// This file is where every scenario's dead events are judged, by one
// rule. A scenario's script states its departures — which members it
// crashed, stopped, paused as anomalous or made leave, and from when —
// and a dead event about a peer is either news of a departure or a
// false positive.

// departure is one member's scripted exit: from at on, a dead event
// about the member at incarnation inc or below is news of the exit.
// crash marks an exit scored for detection; a graceful leave is
// legitimate news but not a failure to detect.
type departure struct {
	at    time.Time
	inc   uint64
	crash bool
}

// deaths is the verdict on one run's dead events.
type deaths struct {
	// FP counts dead events no departure explains, and FPHealthy the
	// subset raised at healthy observers — neither departed nor faulted
	// (the paper's FP⁻, §V-F1). TP counts the dead events a departure
	// explains.
	FP, FPHealthy, TP int

	// FPBySubject splits FP by the member wrongly declared dead.
	FPBySubject map[string]int

	// Detect holds, per crashed subject, each observer's first
	// legitimate dead event about it, as the delay from the departure.
	Detect map[string]map[string]time.Duration
}

// scoreDeaths judges every dead event from since on against the
// departures in gone; an observer in gone or faulted is not healthy. A
// member's dead event about itself is its own leave, not news about a
// peer, and is skipped.
func scoreDeaths(events []metrics.Event, since time.Time, gone map[string]departure, faulted map[string]bool) deaths {
	s := deaths{FPBySubject: make(map[string]int), Detect: make(map[string]map[string]time.Duration)}
	for _, ev := range events {
		if ev.Type != metrics.EventDead || ev.Time.Before(since) || ev.Observer == ev.Subject {
			continue
		}
		if d, ok := gone[ev.Subject]; ok && !ev.Time.Before(d.at) && ev.Incarnation <= d.inc {
			s.TP++
			if !d.crash {
				continue
			}
			byObs := s.Detect[ev.Subject]
			if byObs == nil {
				byObs = make(map[string]time.Duration)
				s.Detect[ev.Subject] = byObs
			}
			if _, seen := byObs[ev.Observer]; !seen {
				byObs[ev.Observer] = ev.Time.Sub(d.at)
			}
			continue
		}
		s.FP++
		s.FPBySubject[ev.Subject]++
		if _, departed := gone[ev.Observer]; !departed && !faulted[ev.Observer] {
			s.FPHealthy++
		}
	}
	return s
}

// detection summarises how the observers accept admits (every observer,
// when accept is nil) learned that the crashed subject died: n of them
// did, the first after first and the slowest after last.
func (s deaths) detection(subject string, accept func(observer string) bool) (first, last time.Duration, n int) {
	for obs, d := range s.Detect[subject] {
		if accept != nil && !accept(obs) {
			continue
		}
		if n == 0 || d < first {
			first = d
		}
		last = max(last, d)
		n++
	}
	return first, last, n
}

// cast picks k distinct member names from indices [1, n) — never member
// 0, the join seed — with an RNG seeded by seed alone, clamping k to the
// n−1 eligible.
func cast(n, k int, seed int64) []string {
	idx := rand.New(rand.NewSource(seed)).Perm(n - 1)
	k = min(k, len(idx))
	names := make([]string, k)
	for j, i := range idx[:k] {
		names[j] = NodeName(i + 1)
	}
	return names
}
