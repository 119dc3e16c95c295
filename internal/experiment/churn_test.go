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
	rec, err := RunChurn(
		ClusterConfig{N: 24, Seed: 3, Protocol: ConfigLifeguard},
		ChurnParams{Interval: time.Second, Duration: 8 * time.Second},
	)
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Metrics
	t.Logf("churn small: %v", m)
	if m["fails"] == 0 || m["leaves"] == 0 || m["joins"] == 0 {
		t.Fatalf("churn schedule did not execute all action kinds: %+v", rec)
	}
	if m["detected_fails"] != m["fails"] {
		t.Errorf("detected %g of %g crashed members", m["detected_fails"], m["fails"])
	}
	if m["joins_sampled"] > 0 && m["joins_seen"] < float64(int(m["joins_sampled"])*9/10) {
		t.Errorf("joins seen %g/%g, want ≥90%%", m["joins_seen"], m["joins_sampled"])
	}
}

// TestChurnPoolExhaustion drives far more fail/leave actions than the
// initial membership can supply: the pool must refill from converged
// joins and, if it still runs dry, skip the action rather than panic.
func TestChurnPoolExhaustion(t *testing.T) {
	rec, err := RunChurn(
		ClusterConfig{N: 8, Seed: 5, Protocol: ConfigLifeguard},
		ChurnParams{Interval: 200 * time.Millisecond, Duration: 10 * time.Second, Settle: 5 * time.Second},
	)
	if err != nil {
		t.Fatal(err)
	}
	if m := rec.Metrics; m["fails"]+m["leaves"] == 0 || m["joins"] == 0 {
		t.Fatalf("degenerate churn run: %+v", rec)
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
	rec, err := RunChurn(
		ClusterConfig{N: ScaleBench.ChurnN, Seed: 1, Protocol: ConfigLifeguard},
		ChurnParams{},
	)
	if err != nil {
		t.Fatal(err)
	}
	n, m := rec.Params["members"].(int), rec.Metrics
	t.Logf("churn %d: %v", n, m)

	if n < 500 {
		t.Fatalf("cluster size %d, want ≥ 500", n)
	}
	if m["detected_fails"] != m["fails"] {
		t.Errorf("detected %g of %g crashed members (completeness violated)", m["detected_fails"], m["fails"])
	}
	suspMin := core.SuspicionMin(ConfigLifeguard.Alpha, n, time.Second).Seconds() // the §V-C timeout floor
	if med := m["first_detect_median_s"]; med <= 1 || med > 2*suspMin {
		t.Errorf("median first-detection %.2fs outside (1s, %.1fs]", med, 2*suspMin)
	}
	if int(m["fp"]) > int(m["fails"])/2 {
		t.Errorf("false positives %g vs %g true failures; churn destabilized the detector", m["fp"], m["fails"])
	}
	if m["joins_sampled"] > 0 && m["joins_seen"] < float64(int(m["joins_sampled"])*9/10) {
		t.Errorf("joins seen %g/%g, want ≥90%%", m["joins_seen"], m["joins_sampled"])
	}
}
