package experiment

import (
	"testing"
	"time"

	"lifeguard/internal/core"
)

// TestChurnSmall smoke-tests the churn machinery at a size every test
// run can afford: actions execute, crashes are detected, and joins
// become visible.
func TestChurnSmall(t *testing.T) {
	res, err := RunChurn(
		ClusterConfig{N: 24, Seed: 3, Protocol: ConfigLifeguard},
		ChurnParams{Interval: time.Second, Duration: 8 * time.Second},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("churn small: fails=%d leaves=%d joins=%d detected=%d fp=%d joinsSeen=%d/%d med=%.2fs",
		res.Fails, res.Leaves, res.Joins, res.DetectedFails, res.FP,
		res.JoinsSeen, res.JoinsSampled, res.FirstDetect.Median)
	if res.Fails == 0 || res.Leaves == 0 || res.Joins == 0 {
		t.Fatalf("churn schedule did not execute all action kinds: %+v", res)
	}
	if res.DetectedFails != res.Fails {
		t.Errorf("detected %d of %d crashed members", res.DetectedFails, res.Fails)
	}
	if res.JoinsSampled > 0 && res.JoinsSeen < res.JoinsSampled*9/10 {
		t.Errorf("joins seen %d/%d, want ≥90%%", res.JoinsSeen, res.JoinsSampled)
	}
}

// TestChurnPoolExhaustion drives far more fail/leave actions than the
// initial membership can supply: the pool must refill from converged
// joins and, if it still runs dry, skip the action rather than panic.
func TestChurnPoolExhaustion(t *testing.T) {
	res, err := RunChurn(
		ClusterConfig{N: 8, Seed: 5, Protocol: ConfigLifeguard},
		ChurnParams{Interval: 200 * time.Millisecond, Duration: 10 * time.Second, Settle: 5 * time.Second},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fails+res.Leaves == 0 || res.Joins == 0 {
		t.Fatalf("degenerate churn run: %+v", res)
	}
}

// TestChurnLargeCluster runs the churn scenario at the bench scale's
// 512 members (the 2048-member paper-scale run is CI's nightly
// `lifebench -exp churn -scale paper`, held to the same four
// conditions): a large cluster under continuous join/leave/fail churn.
// The assertions pin the protocol behaviors the paper's evaluation
// establishes and that must survive at scale:
//
//   - every crashed member is detected (SWIM completeness, §III-A);
//   - median first-detection latency sits between one probe interval and
//     the suspicion timeout — the timeout floor is
//     α·log10(n)·ProbeInterval (§V-C; ≈ 13.5 s at n = 512), so
//     detections past 2× that indicate the probe schedule broke down;
//   - false positives at members that neither crashed nor left stay
//     rare relative to the number of true failures (the paper's FP
//     metric, §V-F1) — churn itself must not destabilize the detector;
//   - joining members converge into the views of established members.
func TestChurnLargeCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("large-cluster churn run")
	}
	res, err := RunChurn(
		ClusterConfig{N: ScaleBench.ChurnN, Seed: 1, Protocol: ConfigLifeguard},
		ChurnParams{},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("churn %d: fails=%d leaves=%d joins=%d detected=%d fp=%d joinsSeen=%d/%d med=%.2fs p99=%.2fs",
		res.N, res.Fails, res.Leaves, res.Joins, res.DetectedFails, res.FP,
		res.JoinsSeen, res.JoinsSampled, res.FirstDetect.Median, res.FirstDetect.P99)

	if res.N < 500 {
		t.Fatalf("cluster size %d, want ≥ 500", res.N)
	}
	if res.DetectedFails != res.Fails {
		t.Errorf("detected %d of %d crashed members (completeness violated)", res.DetectedFails, res.Fails)
	}
	suspMin := core.SuspicionMin(ConfigLifeguard.Alpha, res.N, time.Second).Seconds() // the §V-C timeout floor
	if res.FirstDetect.Median <= 1 || res.FirstDetect.Median > 2*suspMin {
		t.Errorf("median first-detection %.2fs outside (1s, %.1fs]", res.FirstDetect.Median, 2*suspMin)
	}
	if res.FP > res.Fails/2 {
		t.Errorf("false positives %d vs %d true failures; churn destabilized the detector", res.FP, res.Fails)
	}
	if res.JoinsSampled > 0 && res.JoinsSeen < res.JoinsSampled*9/10 {
		t.Errorf("joins seen %d/%d, want ≥90%%", res.JoinsSeen, res.JoinsSampled)
	}
}
