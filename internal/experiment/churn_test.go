package experiment

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"lifeguard/internal/core"
	"lifeguard/internal/metrics"
)

// TestChurnSmall smoke-tests the churn machinery at a size every test
// run can afford: actions execute, crashes are detected, and joins
// become visible.
func TestChurnSmall(t *testing.T) {
	rec, err := runChurn(ClusterConfig{N: 24, Seed: 3, Protocol: ConfigLifeguard}, 8*time.Second)
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
// joins and, when it still runs dry, skip the action rather than panic.
// A joiner enters the pool 10 s after its join, so the run lasts 20 s
// for the refill to happen.
func TestChurnPoolExhaustion(t *testing.T) {
	const n, seed, duration = 8, 5, 20 * time.Second
	pool := make([]string, n-1)
	for i := range pool {
		pool[i] = fmt.Sprintf("m%d", i)
	}
	s, end := churnScript(pool, duration, seed)
	departures, refilled := 0, 0
	for _, e := range s {
		if e.op == opStop {
			departures++
			if strings.HasPrefix(e.node, "churn-") {
				refilled++
			}
		}
	}
	// Every other action is a departure; the rest are joins.
	if slots := int(end / churnInterval / 2); refilled == 0 || departures >= slots {
		t.Fatalf("script departs %d members (%d of them joiners) in %d departure slots; "+
			"want some joiners, and some slots skipped with the pool dry", departures, refilled, slots)
	}

	rec, err := runChurn(ClusterConfig{N: n, Seed: seed, Protocol: ConfigLifeguard}, duration)
	if err != nil {
		t.Fatal(err)
	}
	if m := rec.Metrics; m["fails"]+m["leaves"] != float64(departures) || m["joins"] == 0 {
		t.Fatalf("churn run departed %g members, script %d: %+v", m["fails"]+m["leaves"], departures, rec)
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
	rec, err := runChurn(ClusterConfig{N: ScaleBench.ChurnN, Seed: 1, Protocol: ConfigLifeguard}, ScaleBench.ChurnFor)
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

// TestLateJoinerLearnsOnlyTheLive is the virtual-time repro of the ghost
// defect: a 16-member cluster loses a member and gains one under a fresh
// name every 20 s for 20 minutes, then a late member joins through the
// seed. The seed's push-pull table still carries the recent dead, but
// the joiner learns members only from alive news: it holds exactly the
// live members, all alive, and raises no join or dead event about a
// member that is gone.
func TestLateJoinerLearnsOnlyTheLive(t *testing.T) {
	const (
		n      = 16
		every  = 20 * time.Second
		churn  = 20 * time.Minute
		settle = time.Minute
	)
	c, err := NewCluster(ClusterConfig{N: n, Seed: 1, Protocol: ConfigLifeguard})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pool := c.allNames()[1:]
	var s script
	for i := 0; time.Duration(i)*every < churn; i++ {
		at := time.Duration(i) * every
		k := rng.Intn(len(pool))
		fresh := fmt.Sprintf("fresh-%03d", i)
		s = append(s, entry{at: at, op: opStop, node: pool[k]}, entry{at: at, op: opJoin, node: fresh})
		pool[k] = fresh
	}
	s = append(s, entry{at: churn, op: opJoin, node: "late"})
	r := c.play(s)
	if err := r.runTo(churn + settle); err != nil {
		t.Fatal(err)
	}

	live := make(map[string]bool, len(c.Nodes))
	for _, node := range c.Nodes {
		live[node.Name()] = true
	}
	late := c.names["late"]
	held := late.Members()
	for _, m := range held {
		if !live[m.Name] || m.State != core.StateAlive {
			t.Errorf("late joiner holds %s as %v; live: %v", m.Name, m.State, live[m.Name])
		}
	}
	if len(held) != len(live) {
		t.Errorf("late joiner holds %d records, want the %d live members", len(held), len(live))
	}
	ghosts := 0
	for _, e := range c.Events.Events() {
		if e.Observer == "late" && !live[e.Subject] && (e.Type == metrics.EventJoin || e.Type == metrics.EventDead) {
			ghosts++
		}
	}
	if ghosts > 0 {
		t.Errorf("late joiner raised %d join/dead events about departed members", ghosts)
	}
	t.Logf("%d departed; seed holds %d records; late joiner holds %d, LHM %d",
		len(r.gone), len(c.Nodes[0].Members()), len(held), late.HealthScore())
}
