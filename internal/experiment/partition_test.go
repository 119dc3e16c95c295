package experiment

import (
	"testing"
	"time"
)

func TestPartitionSidesOperateAndRemerge(t *testing.T) {
	if testing.Short() {
		t.Skip("partition run")
	}
	rec, err := RunPartition(
		ClusterConfig{N: 24, Seed: 6, Protocol: ConfigLifeguard},
		PartitionParams{SizeA: 12, Duration: 90 * time.Second, HealBudget: 3 * time.Minute},
	)
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Metrics
	t.Logf("partition: %v", m)

	if m["side_a_converged"] != 1 || m["side_b_converged"] != 1 {
		t.Error("partitioned sides did not settle on their own membership (§II robustness)")
	}
	// Each of 12 members on each side should hold the 12 others
	// dead/suspect: 288 cross entries at saturation.
	if m["cross_declared_dead"] < 200 {
		t.Errorf("cross-partition dead entries = %g, want near 288", m["cross_declared_dead"])
	}
	if m["remerged"] != 1 {
		t.Fatal("cluster did not automatically merge after healing (§II robustness)")
	}
}

func TestPartitionDefaultsFilled(t *testing.T) {
	if testing.Short() {
		t.Skip("partition run")
	}
	// Degenerate split parameters fall back to a half/half split.
	rec, err := RunPartition(
		ClusterConfig{N: 12, Seed: 8, Protocol: ConfigLifeguard},
		PartitionParams{SizeA: -1, Duration: 45 * time.Second, HealBudget: 2 * time.Minute},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Params["size_a"] != 6 {
		t.Errorf("size_a = %v, want 6", rec.Params["size_a"])
	}
	if rec.Metrics["remerged"] != 1 {
		t.Error("small cluster failed to remerge")
	}
}
