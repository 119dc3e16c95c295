package experiment

import (
	"fmt"
	"reflect"
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
// than eligible members errors out instead of silently truncating, per
// cell and through the registered scenario.
func TestRestartRejectsOversizedCast(t *testing.T) {
	p := smallRestartParams()
	p.Waves, p.PerWave = 4, 10 // 40 > N-1 = 31
	if _, _, err := RunRestartCell(ClusterConfig{Seed: 1, Protocol: ConfigLifeguard}, p); err == nil {
		t.Fatal("oversized restart cast accepted")
	}
	// 8 waves of N/8 = 1 member need 8 of the 7 eligible members.
	if _, err := RunScenario("rolling-restart", RunOptions{Scale: Scale{Name: "tiny", RestartN: 8, RestartWaves: 8}, Seed: 1}); err == nil {
		t.Fatal("oversized restart cast accepted by the rolling-restart scenario")
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
	rec, events, err := RunRestartCell(ClusterConfig{Seed: 1, Protocol: ConfigLifeguard}, smallRestartParams())
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Metrics
	t.Logf("rolling restart: %v", m)
	if m["restarts"] != 6 {
		t.Fatalf("restarts = %g, want 6", m["restarts"])
	}
	if m["rejoined"] != m["restarts"] {
		t.Errorf("only %g of %g restarted members fully rejoined", m["rejoined"], m["restarts"])
	}
	// A rejoin should converge within the settle phase, not linger to
	// the horizon.
	if m["rejoin_max_s"] > 30 {
		t.Errorf("slowest rejoin took %.2fs, want under 30s", m["rejoin_max_s"])
	}
	// Graceful leaves with dissemination time are not false positives;
	// the known FP source is a suspicion racing the leave, which the
	// Lifeguard configuration should keep rare.
	if m["fp"] > m["restarts"] {
		t.Errorf("FP %g exceeds the restart count %g — leaves are being misclassified", m["fp"], m["restarts"])
	}
	if m["msgs_sent"] == 0 || len(events) == 0 {
		t.Errorf("missing load or event log: msgs=%g events=%d", m["msgs_sent"], len(events))
	}
	checkInvariants(t, "Lifeguard", events)
}

// TestRestartInvariants runs the protocol invariants chaos is held to
// over rolling-restart logs, where members rejoin under their own name
// — a path no chaos cell takes: per observer, a restarted member's
// incarnation never goes down, and it never comes back from dead
// without a bump. Under -short it covers one seed of SWIM and
// Lifeguard; the full suite covers seeds 1–4 × all five configurations
// at N = 24.
func TestRestartInvariants(t *testing.T) {
	seeds, configs := []int64{1, 2, 3, 4}, Configurations
	if testing.Short() {
		seeds, configs = seeds[:1], []ProtocolConfig{ConfigSWIM, ConfigLifeguard}
	}
	for _, seed := range seeds {
		for _, proto := range configs {
			_, events, err := RunRestartCell(ClusterConfig{Seed: seed, Protocol: proto}, RestartParams{N: 24})
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, fmt.Sprintf("seed %d/%s", seed, proto.Name), events)
		}
	}
}

// TestRollingRestartDeterminism pins same-seed reproducibility of the
// per-configuration comparison: every cell's record and event-log
// digest must be identical across runs, and a different seed must
// actually change the event logs.
func TestRollingRestartDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("double rolling-restart run")
	}
	run := func(seed int64) (recs []Record, digests []string) {
		for _, proto := range []ProtocolConfig{ConfigSWIM, ConfigLifeguard} {
			rec, events, err := RunRestartCell(ClusterConfig{Seed: seed, Protocol: proto}, smallRestartParams())
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, proto.Name, events)
			recs, digests = append(recs, rec), append(digests, eventDigest(events))
		}
		return recs, digests
	}
	a, aDigests := run(7)
	b, bDigests := run(7)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) || aDigests[i] != bDigests[i] {
			t.Errorf("same-seed cell %s diverged:\n%+v %s\n%+v %s", a[i].Config, a[i], aDigests[i], b[i], bDigests[i])
		}
	}
	_, cDigests := run(8)
	if aDigests[0] == cDigests[0] && aDigests[1] == cDigests[1] {
		t.Error("different seeds produced identical event digests (suspicious)")
	}
}
