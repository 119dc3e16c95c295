package experiment

import (
	"math"
	"strings"
	"testing"
	"time"

	"lifeguard/internal/metrics"
)

// TestScoreDeaths pins the one rule every scenario's dead events are
// judged by, case by case on synthetic event logs.
func TestScoreDeaths(t *testing.T) {
	at := func(s int) time.Time { return time.Unix(0, 0).Add(time.Duration(s) * time.Second) }

	t.Run("anomaly set classification", func(t *testing.T) {
		gone := departed([]string{"bad1", "bad2"}, at(15), false)
		s := scoreDeaths([]metrics.Event{
			// Before the phase start: ignored entirely.
			ev(10*time.Second, metrics.EventDead, "h1", "h2"),
			// True positive: subject anomalous.
			ev(20*time.Second, metrics.EventDead, "h1", "bad1"),
			// FP at an anomalous observer.
			ev(21*time.Second, metrics.EventDead, "bad1", "h3"),
			// FP at a healthy observer (FP⁻).
			ev(22*time.Second, metrics.EventDead, "h1", "h3"),
			// Suspect events are not failure events.
			ev(23*time.Second, metrics.EventSuspect, "h1", "h4"),
			// Another true positive, at an anomalous observer.
			ev(24*time.Second, metrics.EventDead, "bad2", "bad1"),
		}, at(15), gone, nil)
		if s.FP != 2 || s.FPHealthy != 1 || s.TP != 2 {
			t.Errorf("fp/fp-/tp = %d/%d/%d, want 2/1/2", s.FP, s.FPHealthy, s.TP)
		}
		if s.FPBySubject["h3"] != 2 || len(s.FPBySubject) != 1 {
			t.Errorf("FP by subject = %v, want h3:2", s.FPBySubject)
		}
		if len(s.Detect) != 0 {
			t.Errorf("anomalies not scored for detection, yet Detect = %v", s.Detect)
		}
	})

	t.Run("faulted observer", func(t *testing.T) {
		// A chaos victim is faulted — degraded, paused, cut off — but
		// never departs: it stays alive, only impaired, so a dead event
		// about it is an FP, and one it raises is an FP but not FP⁻.
		s := scoreDeaths([]metrics.Event{
			ev(20*time.Second, metrics.EventDead, "victim", "h1"), // at a faulted observer: FP
			ev(21*time.Second, metrics.EventDead, "h2", "h1"),     // at a healthy observer: FP⁻
			ev(22*time.Second, metrics.EventDead, "h2", "victim"), // about the victim: FP⁻
		}, at(15), nil, map[string]bool{"victim": true})
		if s.FP != 3 || s.FPHealthy != 2 || s.TP != 0 {
			t.Errorf("fp/fp-/tp = %d/%d/%d, want 3/2/0", s.FP, s.FPHealthy, s.TP)
		}
	})

	t.Run("first detection and full dissemination", func(t *testing.T) {
		gone := departed([]string{"bad"}, at(15), true)
		healthy := func(obs string) bool { return obs != "bad" }
		s := scoreDeaths([]metrics.Event{
			// First detection at a (t=25), then full coverage of the four
			// healthy members at t=27 (b), t=26 (c), t=30 (d).
			ev(25*time.Second, metrics.EventDead, "a", "bad"),
			ev(27*time.Second, metrics.EventDead, "b", "bad"),
			ev(26*time.Second, metrics.EventDead, "c", "bad"),
			ev(30*time.Second, metrics.EventDead, "d", "bad"),
			// A later duplicate at the same observer does not matter.
			ev(40*time.Second, metrics.EventDead, "a", "bad"),
			// Self-observation is excluded.
			ev(16*time.Second, metrics.EventDead, "bad", "bad"),
		}, at(15), gone, nil)
		if first, _, n := s.detection("bad", nil); n != 4 || first != 10*time.Second {
			t.Errorf("first detection %v by %d observers, want 10s by 4", first, n)
		}
		if _, last, n := s.detection("bad", healthy); n != 4 || last != 15*time.Second {
			t.Errorf("full dissemination %v at %d healthy observers, want 15s at 4", last, n)
		}
		if s.TP != 5 || s.FP != 0 {
			t.Errorf("tp/fp = %d/%d, want 5/0", s.TP, s.FP)
		}
	})

	t.Run("partial dissemination", func(t *testing.T) {
		s := scoreDeaths([]metrics.Event{
			ev(5*time.Second, metrics.EventDead, "a", "bad"),
			// b never sees the failure: one of two healthy members.
		}, at(0), departed([]string{"bad"}, at(0), true), nil)
		if first, last, n := s.detection("bad", nil); n != 1 || first != 5*time.Second || last != first {
			t.Errorf("detection %v..%v by %d, want 5s by 1", first, last, n)
		}
	})

	t.Run("undetected", func(t *testing.T) {
		s := scoreDeaths(nil, at(0), departed([]string{"bad"}, at(0), true), nil)
		if _, _, n := s.detection("bad", nil); n != 0 {
			t.Errorf("detected by %d observers in an empty log", n)
		}
	})

	t.Run("death before the crash lands", func(t *testing.T) {
		gone := departed([]string{"x"}, at(20), true)
		s := scoreDeaths([]metrics.Event{
			ev(15*time.Second, metrics.EventDead, "h1", "x"), // alive yet: FP⁻
			ev(25*time.Second, metrics.EventDead, "h1", "x"), // after the crash: detection
			ev(26*time.Second, metrics.EventDead, "x", "h2"), // raised at the crashed member: FP, not FP⁻
		}, at(10), gone, nil)
		if s.FP != 2 || s.FPHealthy != 1 || s.TP != 1 {
			t.Errorf("fp/fp-/tp = %d/%d/%d, want 2/1/1", s.FP, s.FPHealthy, s.TP)
		}
		if first, _, n := s.detection("x", nil); n != 1 || first != 5*time.Second {
			t.Errorf("crash detected after %v by %d, want 5s by 1", first, n)
		}
	})

	t.Run("leave", func(t *testing.T) {
		gone := map[string]departure{"l": {at: at(20), inc: 3}}
		leaveNews := ev(21*time.Second, metrics.EventDead, "h1", "l")
		leaveNews.Incarnation = 3
		rejoined := ev(30*time.Second, metrics.EventDead, "h1", "l")
		rejoined.Incarnation = 4
		s := scoreDeaths([]metrics.Event{
			ev(20*time.Second, metrics.EventDead, "l", "l"), // its own leave: skipped
			leaveNews, // stale news of the leave: legitimate
			rejoined,  // above the leave incarnation: the rejoined member, FP
		}, at(10), gone, nil)
		if s.TP != 1 || s.FP != 1 || s.FPBySubject["l"] != 1 {
			t.Errorf("tp/fp = %d/%d (by subject %v), want 1/1", s.TP, s.FP, s.FPBySubject)
		}
		if len(s.Detect) != 0 {
			t.Errorf("a leave is not scored for detection, yet Detect = %v", s.Detect)
		}
	})

	t.Run("cross-zone observers", func(t *testing.T) {
		s := scoreDeaths([]metrics.Event{
			ev(2*time.Second, metrics.EventDead, "us-1", "us-x"),
			ev(5*time.Second, metrics.EventDead, "eu-1", "us-x"),
			ev(4*time.Second, metrics.EventDead, "eu-2", "us-x"),
		}, at(0), departed([]string{"us-x"}, at(0), true), nil)
		elsewhere := func(obs string) bool { return !strings.HasPrefix(obs, "us-") }
		if first, _, n := s.detection("us-x", elsewhere); n != 2 || first != 4*time.Second {
			t.Errorf("cross-zone detection %v by %d, want 4s by 2", first, n)
		}
		if first, _, n := s.detection("us-x", nil); n != 3 || first != 2*time.Second {
			t.Errorf("detection %v by %d, want 2s by 3", first, n)
		}
	})
}

// TestCastPinned pins the names every cast returns for one seed, so a
// change in how members are drawn is a deliberate diff.
func TestCastPinned(t *testing.T) {
	same := func(what string, got []string, want ...string) {
		t.Helper()
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	victims, crashed := chaosCast(ChaosParams{N: 32, Victims: 4, Crashes: 2}, 9)
	same("chaos victims", victims, "node-006", "node-010", "node-028", "node-019")
	same("chaos crashes", crashed, "node-025", "node-004")
	same("restart cast", restartCast(RestartParams{N: 32, Waves: 2, PerWave: 3}, 9),
		"node-008", "node-004", "node-028", "node-023", "node-019", "node-018")

	same("anomaly set", cast(16, 5, 42), "node-013", "node-006", "node-015", "node-010", "node-014")
}

// departed states the same exit, at any incarnation, for every named
// member.
func departed(names []string, at time.Time, crash bool) map[string]departure {
	gone := make(map[string]departure, len(names))
	for _, name := range names {
		gone[name] = departure{at: at, inc: math.MaxUint64, crash: crash}
	}
	return gone
}
