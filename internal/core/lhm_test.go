package core

import (
	"testing"
	"testing/quick"
	"time"
)

// adjust applies one LHM delta under the node lock and returns the new
// score.
func (h *harness) adjust(delta int) int {
	h.node.mu.Lock()
	defer h.node.mu.Unlock()
	h.node.adjustLHMLocked(delta)
	return h.node.lhm
}

// scaled scales d by the node's current LHM under the node lock.
func (h *harness) scaled(d time.Duration) time.Duration {
	h.node.mu.Lock()
	defer h.node.mu.Unlock()
	return h.node.scaledLocked(d)
}

func TestLHMStartsHealthy(t *testing.T) {
	h := newHarness(t, nil)
	if got := h.node.HealthScore(); got != 0 {
		t.Errorf("initial score %d, want 0", got)
	}
}

func TestLHMSaturation(t *testing.T) {
	h := newHarness(t, nil)
	// Cannot go below zero.
	if got := h.adjust(-5); got != 0 {
		t.Errorf("score %d, want 0 after negative delta from zero", got)
	}
	// Cannot exceed S.
	if got := h.adjust(100); got != maxLHM {
		t.Errorf("score %d, want %d after huge positive delta", got, maxLHM)
	}
	// Decrements work from saturation.
	if got := h.adjust(-1); got != maxLHM-1 {
		t.Errorf("score %d, want %d", got, maxLHM-1)
	}
}

// TestLHMMaxAtLeastOne: the ceiling S is never degenerate, so a single
// failed probe lifts a healthy node off zero and stretches its timeouts.
func TestLHMMaxAtLeastOne(t *testing.T) {
	if maxLHM < 1 {
		t.Fatalf("maxLHM = %d, want at least 1", maxLHM)
	}
	h := newHarness(t, nil)
	if got := h.adjust(lhmProbeFailed); got != 1 {
		t.Fatalf("score %d after one failed probe, want 1", got)
	}
	if got := h.scaled(time.Second); got != 2*time.Second {
		t.Errorf("scale at score 1: %v, want 2s", got)
	}
}

func TestLHMPaperEventDeltas(t *testing.T) {
	// The paper's event table (§IV-A): failed probe +1, refute +1,
	// missed nack +1, successful probe −1.
	h := newHarness(t, nil)
	h.adjust(lhmProbeFailed)
	h.adjust(lhmRefute)
	if got := h.adjust(lhmMissedNack); got != 3 {
		t.Fatalf("score %d, want 3", got)
	}
	if got := h.adjust(lhmProbeSuccess); got != 2 {
		t.Fatalf("score %d, want 2", got)
	}
}

func TestLHMScaleTimeout(t *testing.T) {
	h := newHarness(t, nil)
	if got := h.scaled(time.Second); got != time.Second {
		t.Errorf("healthy scale: %v, want 1s", got)
	}
	h.adjust(maxLHM)
	// At saturation (S=8): d·(8+1) = 9s, the paper's maximum probe
	// interval for BaseProbeInterval = 1 s.
	if got := h.scaled(time.Second); got != 9*time.Second {
		t.Errorf("saturated scale: %v, want 9s", got)
	}
	if got := h.scaled(500 * time.Millisecond); got != 4500*time.Millisecond {
		t.Errorf("saturated probe timeout: %v, want 4.5s", got)
	}
}

func TestQuickLHMAlwaysInRange(t *testing.T) {
	h := newHarness(t, nil)
	f := func(deltas []int8) bool {
		h.node.lhm = 0
		for _, d := range deltas {
			if got := h.adjust(int(d)); got < 0 || got > maxLHM {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickLHMScaleMonotone(t *testing.T) {
	h := newHarness(t, nil)
	f := func(up uint8) bool {
		h.node.lhm = 0
		prev := h.scaled(time.Second)
		for i := 0; i < int(up%12); i++ {
			h.adjust(1)
			cur := h.scaled(time.Second)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
