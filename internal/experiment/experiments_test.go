package experiment

import (
	"testing"
	"time"
)

func TestIntervalSWIMProducesFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("full interval run")
	}
	res, err := runInterval(
		ClusterConfig{N: 64, Seed: 11, Protocol: ConfigSWIM},
		intervalParams{C: 8, D: 16384 * time.Millisecond, I: 64 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("SWIM: FP=%d FP-=%d TP=%d msgs=%d bytes=%d cycles=%d",
		res.FP, res.FPHealthy, res.TruePositives, res.MsgsSent, res.BytesSent, res.Cycles)
	if res.FP == 0 {
		t.Error("SWIM produced zero false positives under heavy intermittent anomalies; expected many (paper §V-F1)")
	}
}

func TestIntervalLifeguardSuppressesFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("full interval run")
	}
	swim, err := runInterval(
		ClusterConfig{N: 64, Seed: 11, Protocol: ConfigSWIM},
		intervalParams{C: 8, D: 16384 * time.Millisecond, I: 64 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := runInterval(
		ClusterConfig{N: 64, Seed: 11, Protocol: ConfigLifeguard},
		intervalParams{C: 8, D: 16384 * time.Millisecond, I: 64 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("SWIM FP=%d FP-=%d | Lifeguard FP=%d FP-=%d", swim.FP, swim.FPHealthy, lg.FP, lg.FPHealthy)
	if lg.FP >= swim.FP {
		t.Errorf("Lifeguard FP (%d) not below SWIM FP (%d)", lg.FP, swim.FP)
	}
}

func TestThresholdDetectsLongAnomaly(t *testing.T) {
	if testing.Short() {
		t.Skip("full threshold run")
	}
	res, err := runThreshold(
		ClusterConfig{N: 64, Seed: 7, Protocol: ConfigSWIM},
		thresholdParams{C: 4, D: 32768 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("threshold: detected=%d undetected=%d first=%v full=%v",
		res.Detected, res.Undetected, res.FirstDetect, res.FullDissem)
	if res.Detected != 4 {
		t.Errorf("detected %d of 4 long anomalies", res.Detected)
	}
	if len(res.FullDissem) == 0 {
		t.Error("no full dissemination samples")
	}
}

// TestThresholdCountsOnlyTheCast pins that detected + undetected counts
// the anomalies that happened: a C beyond the N−1 eligible members is
// clamped, and the clamped-off members were never failures.
func TestThresholdCountsOnlyTheCast(t *testing.T) {
	res, err := runThreshold(
		ClusterConfig{N: 8, Seed: 3, Protocol: ConfigSWIM},
		thresholdParams{C: 20, D: 30 * time.Second},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Detected + res.Undetected; got != 7 {
		t.Errorf("detected %d + undetected %d = %d, want the 7 eligible members", res.Detected, res.Undetected, got)
	}
}

func TestThresholdLifeguardStillDetectsTrueFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("full threshold run")
	}
	// Lifeguard's suspicion timeout starts at β× the SWIM value, but a
	// genuinely failed member accumulates independent accusations from
	// the healthy majority, driving the timeout back to Min: detection
	// latency must stay within a couple of seconds of SWIM's (paper
	// Table V).
	swim, err := runThreshold(
		ClusterConfig{N: 64, Seed: 17, Protocol: ConfigSWIM},
		thresholdParams{C: 4, D: 32768 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := runThreshold(
		ClusterConfig{N: 64, Seed: 17, Protocol: ConfigLifeguard},
		thresholdParams{C: 4, D: 32768 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Detected != 4 {
		t.Fatalf("Lifeguard detected %d of 4 true failures", lg.Detected)
	}
	mean := func(ds []time.Duration) time.Duration {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return sum / time.Duration(len(ds))
	}
	sm, lm := mean(swim.FirstDetect), mean(lg.FirstDetect)
	t.Logf("mean first detect: SWIM=%v Lifeguard=%v", sm, lm)
	if lm > sm+5*time.Second {
		t.Errorf("Lifeguard detection %v much slower than SWIM %v", lm, sm)
	}
}
