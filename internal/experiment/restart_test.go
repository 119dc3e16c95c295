package experiment

import (
	"testing"
	"time"
)

// smallRestartParams is a reduced rolling-restart configuration for
// quick tests.
func smallRestartParams() RestartParams {
	return RestartParams{
		N:       32,
		Waves:   2,
		PerWave: 3,
		Settle:  20 * time.Second,
	}
}

// TestRestartCastDisjointAndDeterministic pins the restart-cast
// selection: distinct members, never the join seed, a pure function of
// the seed.
func TestRestartCastDisjointAndDeterministic(t *testing.T) {
	p := smallRestartParams().withDefaults()
	c1 := restartCast(p, 9)
	c2 := restartCast(p, 9)
	if len(c1) != p.Waves*p.PerWave {
		t.Fatalf("cast size %d, want %d", len(c1), p.Waves*p.PerWave)
	}
	seen := map[string]bool{NodeName(0): true}
	for i, name := range c1 {
		if seen[name] {
			t.Fatalf("cast repeats or includes the join seed: %s", name)
		}
		seen[name] = true
		if name != c2[i] {
			t.Fatalf("cast not deterministic: %v vs %v", c1, c2)
		}
	}
	c3 := restartCast(p, 10)
	same := true
	for i := range c1 {
		if c1[i] != c3[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical casts (suspicious)")
	}
}

// TestRestartRejectsOversizedCast pins the validation: more restarts
// than eligible members errors out instead of silently truncating.
func TestRestartRejectsOversizedCast(t *testing.T) {
	p := smallRestartParams()
	p.Waves, p.PerWave = 4, 10 // 40 > N-1 = 31
	if _, err := RunRestartCell(ClusterConfig{Seed: 1, Protocol: ConfigLifeguard}, p); err == nil {
		t.Fatal("oversized restart cast accepted")
	}
	if _, err := RunRestart(ClusterConfig{Seed: 1}, p); err == nil {
		t.Fatal("oversized restart cast accepted by RunRestart")
	}
}

// TestRollingRestartRejoins is the scenario's acceptance bar: under
// full Lifeguard, every member restarted in staggered waves must be
// seen alive again — at a fresh incarnation — by every sampled
// long-lived observer, with its leave never misclassified as a false
// positive.
func TestRollingRestartRejoins(t *testing.T) {
	if testing.Short() {
		t.Skip("rolling-restart run")
	}
	cell, err := RunRestartCell(ClusterConfig{Seed: 1, Protocol: ConfigLifeguard}, smallRestartParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("restarts=%d rejoined=%d fp=%d fp-=%d rejoin med=%.2fs max=%.2fs msgs=%d",
		cell.Restarts, cell.Rejoined, cell.FP, cell.FPHealthy,
		cell.RejoinConverge.Median, cell.RejoinConverge.Max, cell.MsgsSent)
	if cell.Restarts != 6 {
		t.Fatalf("restarts = %d, want 6", cell.Restarts)
	}
	if cell.Rejoined != cell.Restarts {
		t.Errorf("only %d of %d restarted members fully rejoined", cell.Rejoined, cell.Restarts)
	}
	if cell.RejoinConverge.Count != cell.Rejoined {
		t.Errorf("convergence summary holds %d samples, want %d", cell.RejoinConverge.Count, cell.Rejoined)
	}
	// A rejoin should converge within the settle phase, not linger to
	// the horizon.
	if cell.RejoinConverge.Max > 30 {
		t.Errorf("slowest rejoin took %.2fs, want under 30s", cell.RejoinConverge.Max)
	}
	// Graceful leaves with dissemination time are not false positives;
	// the known FP source is a suspicion racing the leave, which the
	// Lifeguard configuration should keep rare.
	if cell.FP > cell.Restarts {
		t.Errorf("FP %d exceeds the restart count %d — leaves are being misclassified", cell.FP, cell.Restarts)
	}
	if cell.MsgsSent == 0 || cell.EventDigest == "" {
		t.Errorf("missing load or digest: msgs=%d digest=%q", cell.MsgsSent, cell.EventDigest)
	}
}

// TestRollingRestartDeterminism pins same-seed reproducibility of the
// per-configuration comparison: every cell must be identical across
// runs, and a different seed must actually change the event logs.
func TestRollingRestartDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("double rolling-restart run")
	}
	p := smallRestartParams()
	p.Configs = []ProtocolConfig{ConfigSWIM, ConfigLifeguard}
	run := func(seed int64) RestartResult {
		res, err := RunRestart(ClusterConfig{Seed: seed}, p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(7), run(7)
	if len(a.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(a.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Errorf("same-seed cell %s diverged:\n%+v\n%+v", a.Cells[i].Config, a.Cells[i], b.Cells[i])
		}
	}
	c := run(8)
	if a.Cells[0].EventDigest == c.Cells[0].EventDigest && a.Cells[1].EventDigest == c.Cells[1].EventDigest {
		t.Error("different seeds produced identical event digests (suspicious)")
	}
}
