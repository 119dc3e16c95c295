package experiment

import (
	"strings"
	"testing"
	"time"

	"lifeguard/internal/metrics"
	"lifeguard/internal/sim"
)

func ev(t time.Duration, typ metrics.EventType, observer, subject string) metrics.Event {
	return metrics.Event{
		Time:     time.Unix(0, 0).Add(t),
		Type:     typ,
		Observer: observer,
		Subject:  subject,
	}
}

// TestCastProperties pins what every scenario's cast guarantees: k
// distinct names, never the join seed, a pure function of the seed,
// clamped to the n−1 eligible members.
func TestCastProperties(t *testing.T) {
	names := cast(16, 5, 42)
	if len(names) != 5 {
		t.Fatalf("got %d names", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate %s", n)
		}
		seen[n] = true
		if n == NodeName(0) {
			t.Error("join seed cast")
		}
	}
	// Deterministic per seed.
	again := cast(16, 5, 42)
	for i := range names {
		if names[i] != again[i] {
			t.Fatal("cast not deterministic")
		}
	}
	// Requesting more than available clamps.
	if got := cast(16, 100, 1); len(got) != 15 {
		t.Errorf("clamped cast size = %d, want 15", len(got))
	}
}

func TestNewClusterRejectsTinyN(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{N: 1, Protocol: ConfigSWIM}); err == nil {
		t.Fatal("N=1 accepted")
	}
}

func TestClusterConvergesAfterQuiesce(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 24, Seed: 9, Protocol: ConfigLifeguard})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		t.Fatal(err)
	}
	// The membership map is usually complete within the paper's 15 s
	// quiesce; a transient suspicion may take a few more seconds to
	// refute, so allow a little slack before declaring failure.
	for extra := 0; extra < 30 && !c.Converged(); extra++ {
		c.Sched.RunFor(time.Second)
	}
	if !c.Converged() {
		t.Fatal("24-member cluster did not converge within quiesce + 30s")
	}
}

// TestNewClusterSuspectsAndRecovers drives a cluster with a two-entry
// script rather than through a scenario: fault one member, watch it get
// suspected, lift the fault, watch the cluster re-converge. The
// SetAnomalous subtest pauses the member as the paper's anomaly does,
// stalling its own processing; DegradeNode delays its traffic while it
// stays alive.
func TestNewClusterSuspectsAndRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	boot := func(t *testing.T, seed int64) *Cluster {
		t.Helper()
		c, err := NewCluster(ClusterConfig{N: 16, Seed: seed, Protocol: ConfigLifeguard})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Shutdown)
		if err := c.Start(Quiesce); err != nil {
			t.Fatal(err)
		}
		if !c.Converged() {
			t.Fatal("no convergence")
		}
		return c
	}
	suspected := func(c *Cluster, victim string) bool {
		for _, e := range c.Events.Events() {
			if e.Subject == victim && e.Observer != victim && e.Type == metrics.EventSuspect {
				return true
			}
		}
		return false
	}

	t.Run("SetAnomalous", func(t *testing.T) {
		c := boot(t, 4)
		victim := NodeName(3)
		r := c.play(script{}.anomaly([]string{victim}, 0, 5*time.Second))
		if err := r.runTo(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if !suspected(c, victim) {
			t.Error("paused member never suspected")
		}
		if err := r.runTo(35 * time.Second); err != nil {
			t.Fatal(err)
		}
		if !c.Converged() {
			t.Error("cluster did not re-converge after the resume")
		}
	})

	t.Run("DegradeNode", func(t *testing.T) {
		c := boot(t, 6)
		victim := NodeName(5)
		r := c.play(script{
			{op: opDegrade, node: victim, delay: sim.DelayDist{Base: 2 * time.Second, Jitter: 2 * time.Second}},
			{at: 20 * time.Second, op: opRestore, node: victim},
		})
		if err := r.runTo(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		if !suspected(c, victim) {
			t.Error("degraded member never suspected")
		}
		if err := r.runTo(70 * time.Second); err != nil {
			t.Fatal(err)
		}
		if !c.Converged() {
			t.Error("cluster did not re-converge after the degradation ended")
		}
	})
}

func TestWithTuning(t *testing.T) {
	p := ConfigLifeguard.WithTuning(2, 4)
	if p.Alpha != 2 || p.Beta != 4 {
		t.Errorf("tuning = %v/%v", p.Alpha, p.Beta)
	}
	if !strings.Contains(p.Name, "α=2") || !strings.Contains(p.Name, "β=4") {
		t.Errorf("name = %q", p.Name)
	}
	// Original untouched.
	if ConfigLifeguard.Alpha != 5 {
		t.Error("WithTuning mutated the original")
	}
}

// TestConfigurationsMatchTableI checks that Configurations lists the
// paper's Table I variants in the paper's order.
func TestConfigurationsMatchTableI(t *testing.T) {
	names := make([]string, 0, len(Configurations))
	for _, p := range Configurations {
		names = append(names, p.Name)
	}
	if got, want := strings.Join(names, ", "), "SWIM, LHA-Probe, LHA-Suspicion, Buddy System, Lifeguard"; got != want {
		t.Errorf("configurations = %s, want %s", got, want)
	}
}
