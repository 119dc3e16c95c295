package experiment

import (
	"reflect"
	"testing"
	"time"

	"lifeguard/internal/core"
	"lifeguard/internal/metrics"
	"lifeguard/internal/sim"
)

// smallChaosParams is a reduced matrix configuration for quick tests:
// same five scenarios, smaller cluster and shorter windows.
func smallChaosParams() ChaosParams {
	return ChaosParams{
		N:        32,
		Victims:  4,
		Crashes:  2,
		FaultFor: 24 * time.Second,
		Settle:   24 * time.Second,
	}
}

// TestChaosScenarioNames pins the scenario axis of the matrix.
func TestChaosScenarioNames(t *testing.T) {
	want := []string{"degraded", "pause-flap", "asym-partition", "lossy-link", "combined"}
	got := ChaosScenarioNames()
	if len(got) != len(want) {
		t.Fatalf("scenarios = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scenarios = %v, want %v", got, want)
		}
	}
}

// TestChaosUnknownScenario pins the error path.
func TestChaosUnknownScenario(t *testing.T) {
	_, _, err := RunChaosCell(ClusterConfig{Seed: 1}, "bogus", smallChaosParams())
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestChaosDefaultsIdempotent pins the fault-set defaults and that
// resolving them twice changes nothing, so every cell may resolve the
// params it is handed.
func TestChaosDefaultsIdempotent(t *testing.T) {
	p := ChaosParams{}.withDefaults()
	if p.Victims != 6 || p.Crashes != 3 {
		t.Errorf("zero fault sets resolved to %d/%d, want the 6/3 defaults", p.Victims, p.Crashes)
	}
	for _, p := range []ChaosParams{{}, smallChaosParams(), {Victims: -1, Crashes: -1, CrashAt: time.Second}} {
		once := p.withDefaults()
		if twice := once.withDefaults(); !reflect.DeepEqual(once, twice) {
			t.Errorf("withDefaults not idempotent:\n%+v\n%+v", once, twice)
		}
	}
}

// TestChaosRejectsOversizedFaultSets pins that a victim+crash demand
// exceeding the eligible membership (N minus the join seed) errors out
// instead of silently truncating the crash set to nothing, and that a
// crash offset outside the fault window — a crash set that would never
// crash — errors out instead of reporting 0 of C detected.
func TestChaosRejectsOversizedFaultSets(t *testing.T) {
	p := smallChaosParams()
	p.Victims = p.N - 1 // leaves no room for the crashes
	if _, _, err := RunChaosCell(ClusterConfig{Seed: 1}, "degraded", p); err == nil {
		t.Fatal("oversized fault sets accepted")
	}
	if _, err := RunChaos(ClusterConfig{Seed: 1}, p); err == nil {
		t.Fatal("oversized fault sets accepted by RunChaos")
	}
	late := smallChaosParams()
	late.CrashAt = late.FaultFor
	if _, _, err := RunChaosCell(ClusterConfig{Seed: 1}, "degraded", late); err == nil {
		t.Fatal("CrashAt at the end of the fault window accepted")
	}
	if _, err := RunChaos(ClusterConfig{Seed: 1}, late); err == nil {
		t.Fatal("CrashAt at the end of the fault window accepted by RunChaos")
	}
}

// TestChaosCastDisjointAndDeterministic pins the fault-set selection:
// victims and crashes never overlap, never include the join seed, and
// are a pure function of the seed.
func TestChaosCastDisjointAndDeterministic(t *testing.T) {
	p := smallChaosParams()
	v1, c1 := chaosCast(p, 9)
	v2, c2 := chaosCast(p, 9)
	if len(v1) != p.Victims || len(c1) != p.Crashes {
		t.Fatalf("cast sizes %d/%d, want %d/%d", len(v1), len(c1), p.Victims, p.Crashes)
	}
	seen := map[string]bool{NodeName(0): true}
	for _, name := range append(append([]string{}, v1...), c1...) {
		if seen[name] {
			t.Fatalf("cast overlaps or includes the join seed: %s", name)
		}
		seen[name] = true
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("victim cast not deterministic: %v vs %v", v1, v2)
		}
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("crash cast not deterministic: %v vs %v", c1, c2)
		}
	}
	v3, _ := chaosCast(p, 10)
	different := false
	for i := range v1 {
		if v1[i] != v3[i] {
			different = true
		}
	}
	if !different {
		t.Error("different seeds produced identical victim casts (suspicious)")
	}
}

// TestRefutationLatencies pins the suspect/alive pairing on a synthetic
// event log: refuted suspicions yield latency samples, dead-resolved
// and still-open ones do not, crashed subjects and self-observations
// are excluded.
func TestRefutationLatencies(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	events := []metrics.Event{
		{Time: at(1), Observer: "a", Subject: "v", Type: metrics.EventSuspect},
		{Time: at(3.5), Observer: "a", Subject: "v", Type: metrics.EventAlive},   // refuted, 2.5s
		{Time: at(4), Observer: "a", Subject: "v", Type: metrics.EventAlive},     // no open suspicion: ignored
		{Time: at(5), Observer: "b", Subject: "v", Type: metrics.EventSuspect},   // resolved by dead
		{Time: at(6), Observer: "b", Subject: "v", Type: metrics.EventDead},      // not a refutation
		{Time: at(7), Observer: "a", Subject: "w", Type: metrics.EventSuspect},   // still open at the end
		{Time: at(1), Observer: "a", Subject: "x", Type: metrics.EventSuspect},   // crashed subject: excluded
		{Time: at(2), Observer: "a", Subject: "x", Type: metrics.EventAlive},     // crashed subject: excluded
		{Time: at(1), Observer: "v", Subject: "v", Type: metrics.EventSuspect},   // self-observation: excluded
		{Time: at(0.5), Observer: "c", Subject: "v", Type: metrics.EventSuspect}, // before start: excluded
	}
	susp, refuted, lat := refutationLatencies(events, map[string]departure{"x": {}}, t0.Add(800*time.Millisecond))
	if susp != 3 || refuted != 1 {
		t.Fatalf("suspicions/refuted = %d/%d, want 3/1", susp, refuted)
	}
	if len(lat) != 1 || lat[0] != 2.5 {
		t.Fatalf("latencies = %v, want [2.5]", lat)
	}
}

// TestChaosCombinedCoversAllFaultClasses pins that the combined
// scenario keeps all three fault classes even at small victim counts
// (the round-robin deal): with 4 victims the lossy class must still be
// present, observable through the duplication/reordering counters.
func TestChaosCombinedCoversAllFaultClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos cell run")
	}
	p := smallChaosParams()
	p.Victims = 4
	cell, _, err := RunChaosCell(ClusterConfig{Seed: 2, Protocol: ConfigSWIM}, "combined", p)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Duplicated == 0 && cell.Reordered == 0 {
		t.Errorf("combined cell with 4 victims shows no link-fault interventions — lossy class missing")
	}
}

// TestChaosLifeguardBeatsSWIM is the acceptance bar for the chaos
// subsystem, the repo's first reproduction of the paper's headline
// claim: under the degraded-member scenario — victims alive but slow,
// not dead — full Lifeguard produces strictly fewer false positives
// than plain SWIM at the same seed, while detecting the real crashes
// just as fast (equal-or-better median) and just as completely.
func TestChaosLifeguardBeatsSWIM(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix run")
	}
	res, err := RunChaos(
		ClusterConfig{Seed: 1},
		ChaosParams{
			CrashAt:   5 * time.Second,
			Scenarios: []string{"degraded"},
			Configs:   []ProtocolConfig{ConfigSWIM, ConfigLifeguard},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatChaos(res))
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	swim, lifeguard := res.Cells[0], res.Cells[1]
	if swim.Config != "SWIM" || lifeguard.Config != "Lifeguard" {
		t.Fatalf("cell order %s/%s", swim.Config, lifeguard.Config)
	}
	// Both configurations must detect every real crash.
	for _, cell := range res.Cells {
		if cell.CrashesDetected != cell.Crashes {
			t.Errorf("%s: detected %d of %d crashes", cell.Config, cell.CrashesDetected, cell.Crashes)
		}
	}
	// The headline: strictly fewer false positives under Lifeguard.
	if lifeguard.FP >= swim.FP {
		t.Errorf("Lifeguard FP %d not strictly below SWIM FP %d", lifeguard.FP, swim.FP)
	}
	// At equal-or-better detection latency for the real crashes.
	if lifeguard.CrashDetect.Median > swim.CrashDetect.Median {
		t.Errorf("Lifeguard crash-detection median %.2fs worse than SWIM %.2fs",
			lifeguard.CrashDetect.Median, swim.CrashDetect.Median)
	}
	// The degradation must actually bite: SWIM's false positives are
	// the paper's motivating condition, not noise.
	if swim.FP < 100 {
		t.Errorf("SWIM produced only %d FP — degradation did not engage", swim.FP)
	}
	if swim.Suspicions == 0 || lifeguard.Refuted == 0 {
		t.Errorf("suspicion machinery idle: SWIM susp %d, Lifeguard refuted %d",
			swim.Suspicions, lifeguard.Refuted)
	}
}

// TestChaosMatrixDeterminism pins same-seed reproducibility of the
// full scenario × configuration matrix: every cell — metrics, stats
// counters and the event-log digest — must be byte-identical across
// runs, and a different seed must actually change the runs.
func TestChaosMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("double chaos matrix run")
	}
	run := func(seed int64) ChaosResult {
		res, err := RunChaos(ClusterConfig{Seed: seed}, smallChaosParams())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(5), run(5)
	if len(a.Cells) != len(chaosScenarios)*len(Configurations) {
		t.Fatalf("matrix has %d cells, want %d", len(a.Cells), len(chaosScenarios)*len(Configurations))
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Errorf("same-seed cell %s/%s diverged:\n%+v\n%+v",
				a.Cells[i].Scenario, a.Cells[i].Config, a.Cells[i], b.Cells[i])
		}
	}
	c := run(6)
	same := 0
	for i := range a.Cells {
		if a.Cells[i].EventDigest == c.Cells[i].EventDigest {
			same++
		}
	}
	if same == len(a.Cells) {
		t.Error("different seeds produced identical event digests in every cell (suspicious)")
	}
}

// TestChaosInvariants is the property harness run across every chaos
// matrix cell: per observer–subject stream, incarnation numbers never
// decrease, and no member transitions Dead → Alive without an
// incarnation bump. Under -short it covers a 2×2 corner of the matrix;
// the full suite covers all 25 cells.
func TestChaosInvariants(t *testing.T) {
	p := smallChaosParams()
	scenarios := ChaosScenarioNames()
	configs := Configurations
	if testing.Short() {
		scenarios = []string{"degraded", "lossy-link"}
		configs = []ProtocolConfig{ConfigSWIM, ConfigLifeguard}
	}
	for _, scenario := range scenarios {
		for _, proto := range configs {
			cell, events, err := RunChaosCell(ClusterConfig{Seed: 3, Protocol: proto}, scenario, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatalf("%s/%s: empty event log", scenario, proto.Name)
			}
			checkChaosInvariants(t, scenario+"/"+proto.Name, events)
			if cell.EventDigest == "" {
				t.Errorf("%s/%s: empty event digest", scenario, proto.Name)
			}
		}
	}
}

// checkChaosInvariants asserts the membership-protocol safety
// properties on one cell's event log.
func checkChaosInvariants(t *testing.T, cell string, events []metrics.Event) {
	t.Helper()
	type view struct {
		incarnation uint64
		dead        bool
		deadInc     uint64
	}
	views := make(map[string]*view)
	for _, ev := range events {
		key := ev.Observer + "|" + ev.Subject
		v := views[key]
		if v == nil {
			v = &view{}
			views[key] = v
		}
		if ev.Incarnation < v.incarnation {
			t.Fatalf("%s: incarnation of %s regressed at observer %s: %d -> %d (%s)",
				cell, ev.Subject, ev.Observer, v.incarnation, ev.Incarnation, ev.Type)
		}
		v.incarnation = ev.Incarnation
		switch ev.Type {
		case metrics.EventDead:
			v.dead = true
			v.deadInc = ev.Incarnation
		case metrics.EventJoin, metrics.EventAlive:
			if v.dead && ev.Incarnation <= v.deadInc {
				t.Fatalf("%s: %s transitioned dead -> alive at observer %s without an incarnation bump (dead inc %d, alive inc %d)",
					cell, ev.Subject, ev.Observer, v.deadInc, ev.Incarnation)
			}
			v.dead = false
		}
	}
}

// TestChaosPausedMemberRefutes is the Buddy System regression pinned
// at a fixed seed: a member paused for 7 s with inbound dropped (it
// never hears the suspicion raised while stalled) must, after resuming,
// learn of its suspicion from a buddy ping and refute — returning to
// Alive everywhere without ever being declared dead — when
// LHA-Suspicion + Buddy are enabled; under plain SWIM at the same seed
// the same member never learns, never refutes, and is declared dead
// while demonstrably alive (§IV-C's motivating failure).
func TestChaosPausedMemberRefutes(t *testing.T) {
	lhaSB := ProtocolConfig{Name: "LHA-Suspicion+Buddy", LHASuspicion: true, BuddySystem: true, Alpha: 5, Beta: 6}
	run := func(proto ProtocolConfig) (suspects, refutes, deads, aliveViews int) {
		c, err := NewCluster(ClusterConfig{N: 48, Seed: 1, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		if err := c.Start(Quiesce); err != nil {
			t.Fatal(err)
		}
		victim := NodeName(7)
		s := &sim.FaultSchedule{}
		s.PauseNode(0, victim, sim.PauseDrop)
		s.ResumeNode(7*time.Second, victim)
		c.Net.InstallFaults(s)
		c.Sched.RunFor(60 * time.Second)

		for _, ev := range c.Events.Events() {
			if ev.Subject != victim || ev.Observer == victim {
				continue
			}
			switch ev.Type {
			case metrics.EventSuspect:
				suspects++
			case metrics.EventAlive:
				refutes++
			case metrics.EventDead:
				deads++
			}
		}
		for _, n := range c.Nodes {
			if n.Name() == victim {
				continue
			}
			for _, m := range n.Members() {
				if m.Name == victim && m.State == core.StateAlive {
					aliveViews++
				}
			}
		}
		return suspects, refutes, deads, aliveViews
	}

	suspects, refutes, deads, aliveViews := run(lhaSB)
	if suspects == 0 {
		t.Error("LHA-Suspicion+Buddy: victim was never suspected — the pause did not bite")
	}
	if deads != 0 {
		t.Errorf("LHA-Suspicion+Buddy: victim declared dead %d times, want 0", deads)
	}
	if refutes == 0 {
		t.Error("LHA-Suspicion+Buddy: victim never refuted its suspicion")
	}
	if aliveViews != 47 {
		t.Errorf("LHA-Suspicion+Buddy: victim alive in %d of 47 views", aliveViews)
	}

	suspects, refutes, deads, _ = run(ConfigSWIM)
	if suspects == 0 {
		t.Error("SWIM: victim was never suspected — the pause did not bite")
	}
	if deads == 0 {
		t.Error("SWIM: victim was never declared dead — no differential with the Lifeguard run")
	}
	_ = refutes // SWIM may eventually refute the death itself; the dead events are the regression.
}
