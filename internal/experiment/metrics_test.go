package experiment

import (
	"strings"
	"testing"
	"time"

	"lifeguard/internal/metrics"
	"lifeguard/internal/sim"
	"lifeguard/internal/stats"
)

func ev(t time.Duration, typ metrics.EventType, observer, subject string) metrics.Event {
	return metrics.Event{
		Time:     time.Unix(0, 0).Add(t),
		Type:     typ,
		Observer: observer,
		Subject:  subject,
	}
}

func TestPickAnomalySetProperties(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 16, Seed: 3, Protocol: ConfigSWIM})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	names := c.PickAnomalySet(5, 42)
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
			t.Error("join seed selected as anomalous")
		}
	}
	// Deterministic per seed.
	again := c.PickAnomalySet(5, 42)
	for i := range names {
		if names[i] != again[i] {
			t.Fatal("anomaly set not deterministic")
		}
	}
	// Requesting more than available clamps.
	if got := c.PickAnomalySet(100, 1); len(got) != 15 {
		t.Errorf("clamped set size = %d, want 15", len(got))
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

// TestNewClusterSuspectsAndRecovers drives a cluster by hand rather
// than through a scenario: fault one member, watch it get suspected,
// lift the fault, watch the cluster re-converge. SetAnomalous gates the
// member's own processing; DegradeNode delays its traffic while it
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
		c.SetAnomalous([]string{victim}, true)
		c.Sched.RunFor(5 * time.Second)
		if !suspected(c, victim) {
			t.Error("gated member never suspected")
		}
		c.SetAnomalous([]string{victim}, false)
		c.Sched.RunFor(30 * time.Second)
		if !c.Converged() {
			t.Error("cluster did not re-converge after release")
		}
	})

	t.Run("DegradeNode", func(t *testing.T) {
		c := boot(t, 6)
		victim := NodeName(5)
		s := &sim.FaultSchedule{}
		s.DegradeNode(0, victim, sim.DelayDist{Base: 2 * time.Second, Jitter: 2 * time.Second})
		s.RestoreNode(20*time.Second, victim)
		c.Net.InstallFaults(s)
		c.Sched.RunFor(20 * time.Second)
		if !suspected(c, victim) {
			t.Error("degraded member never suspected")
		}
		c.Sched.RunFor(50 * time.Second)
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

// --- Report formatting ---

func sampleIntervalResults() []IntervalSweepResult {
	return []IntervalSweepResult{
		{
			Config: ConfigSWIM, FP: 1000, FPHealthy: 40,
			MsgsSent: 2_000_000, BytesSent: 3 << 30, Runs: 4,
			ByC: map[int]*IntervalCell{
				4:  {FP: 400, FPHealthy: 10, Runs: 2},
				16: {FP: 600, FPHealthy: 30, Runs: 2},
			},
		},
		{
			Config: ConfigLifeguard, FP: 20, FPHealthy: 1,
			MsgsSent: 2_200_000, BytesSent: 29 << 27, Runs: 4,
			ByC: map[int]*IntervalCell{
				4:  {FP: 5, FPHealthy: 0, Runs: 2},
				16: {FP: 15, FPHealthy: 1, Runs: 2},
			},
		},
	}
}

func TestFormatTable4(t *testing.T) {
	out := FormatTable4(sampleIntervalResults())
	for _, want := range []string{"SWIM", "Lifeguard", "100.00", "2.00", "2.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 4 missing %q:\n%s", want, out)
		}
	}
}

func TestFormatTable5(t *testing.T) {
	res := []ThresholdSweepResult{{
		Config:      ConfigSWIM,
		FirstDetect: stats.Summary{Count: 10, Median: 12.44, P99: 16.96, P999: 19.4},
		FullDissem:  stats.Summary{Count: 10, Median: 12.9, P99: 16.93, P999: 20.17},
	}}
	out := FormatTable5(res)
	for _, want := range []string{"SWIM", "12.44", "16.96", "20.17"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 5 missing %q:\n%s", want, out)
		}
	}
}

func TestFormatTable6(t *testing.T) {
	out := FormatTable6(sampleIntervalResults())
	for _, want := range []string{"Msgs Sent(M)", "2.000", "110.00", "SWIM"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 6 missing %q:\n%s", want, out)
		}
	}
}

func TestFormatTable7(t *testing.T) {
	res := TuningSweepResult{Cells: []TuningCell{
		{Alpha: 2, Beta: 2, MedFirst: 53.14, FP: 98.37, FPHealthy: 31.15},
		{Alpha: 5, Beta: 6, MedFirst: 100.08, FP: 1.53, FPHealthy: 1.89},
	}}
	out := FormatTable7(res)
	for _, want := range []string{"α=2,β=2", "α=5,β=6", "53.14", "1.53", "FP-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 7 missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFigure2(t *testing.T) {
	out := FormatFigure2(sampleIntervalResults(), false)
	for _, want := range []string{"C=4", "C=16", "400", "15"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 2 missing %q:\n%s", want, out)
		}
	}
	healthy := FormatFigure2(sampleIntervalResults(), true)
	if !strings.Contains(healthy, "FP at Healthy") {
		t.Errorf("figure 3 header missing:\n%s", healthy)
	}
}

func TestFormatFigure1(t *testing.T) {
	res := []StressSweepResult{{
		Config: ConfigSWIM,
		ByCount: map[int]StressResult{
			4:  {FP: 70, FPHealthy: 2},
			16: {FP: 500, FPHealthy: 9},
		},
	}}
	out := FormatFigure1(res)
	for _, want := range []string{"S=4", "S=16", "500", "total FP", "FP@healthy"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 1 missing %q:\n%s", want, out)
		}
	}
}
