package experiment

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"lifeguard/internal/core"
	"lifeguard/internal/metrics"
	"lifeguard/internal/sim"
)

// smallChaosN and smallChaosParams are a reduced matrix configuration
// for quick tests: same five scenarios and fault sets, smaller cluster
// and shorter windows (the smoke scale's).
const smallChaosN = 32

func smallChaosParams() chaosParams {
	return chaosParams{
		FaultFor: 24 * time.Second,
		CrashAt:  8 * time.Second,
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
	_, _, err := runChaosCell(ClusterConfig{N: smallChaosN, Seed: 1}, "bogus", smallChaosParams())
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestChaosRejectsOversizedFaultSets pins that a victim+crash demand
// exceeding the eligible membership (N minus the join seed) errors out
// instead of silently truncating the crash set to nothing — per cell
// and through the registered scenario — and that a crash offset outside
// the fault window — a crash set that would never crash, or crashes
// before the faults start — errors out instead of reporting 0 of C
// detected.
func TestChaosRejectsOversizedFaultSets(t *testing.T) {
	// The 6 victims + 3 crashes need 9 of the 8 eligible members.
	tight := ClusterConfig{N: chaosVictims + chaosCrashes, Seed: 1}
	if _, _, err := runChaosCell(tight, "degraded", smallChaosParams()); err == nil {
		t.Fatal("oversized fault sets accepted")
	}
	tiny := Scale{Name: "tiny", ChaosN: 8, ChaosFaultFor: 24 * time.Second, ChaosSettle: 24 * time.Second}
	if _, err := RunScenarios([]string{"chaos"}, RunOptions{Scale: tiny, Seed: 1}); err == nil {
		t.Fatal("oversized fault sets accepted by the chaos scenario")
	}
	cc := ClusterConfig{N: smallChaosN, Seed: 1}
	for _, crashAt := range []time.Duration{smallChaosParams().FaultFor, 0} {
		p := smallChaosParams()
		p.CrashAt = crashAt
		if _, _, err := runChaosCell(cc, "degraded", p); err == nil {
			t.Fatalf("CrashAt %v outside the %v fault window accepted", crashAt, p.FaultFor)
		}
	}
}

// TestChaosCastDisjointAndDeterministic pins the fault-set selection:
// victims and crashes never overlap, never include the join seed, and
// are a pure function of the seed.
func TestChaosCastDisjointAndDeterministic(t *testing.T) {
	v1, c1 := chaosCast(smallChaosN, 9)
	v2, c2 := chaosCast(smallChaosN, 9)
	if len(v1) != chaosVictims || len(c1) != chaosCrashes {
		t.Fatalf("cast sizes %d/%d, want %d/%d", len(v1), len(c1), chaosVictims, chaosCrashes)
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
	v3, _ := chaosCast(smallChaosN, 10)
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
// scenario's round-robin deal keeps all three fault classes: the lossy
// class, dealt last, must be present, observable through the
// duplication/reordering counters.
func TestChaosCombinedCoversAllFaultClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos cell run")
	}
	rec, _, err := runChaosCell(ClusterConfig{N: smallChaosN, Seed: 2, Protocol: ConfigSWIM}, "combined", smallChaosParams())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Metrics["duplicated"] == 0 && rec.Metrics["reordered"] == 0 {
		t.Errorf("combined cell shows no link-fault interventions — lossy class missing")
	}
}

// TestChaosLifeguardBeatsSWIM is the acceptance bar for the chaos
// subsystem, the repo's first reproduction of the paper's headline
// claim: under the degraded-member scenario — victims alive but slow,
// not dead — full Lifeguard produces strictly fewer false positives
// than plain SWIM at the same seed, while detecting every real crash.
//
// The cell is the bench scale's (48 members, a 60 s fault window, 45 s
// settle) with the crashes at +5 s, not at the scenario's
// FaultFor/3 = +20 s. Crash-detection speed is pinned, not claimed: at
// seeds 1–12 Lifeguard's median is never below SWIM's, equal at four
// and 0.7–3.8 s above at eight (docs/ARCHITECTURE.md, Fault injection;
// ROADMAP item 4). The seed-1 medians are 9.41 s for SWIM and 10.41 s
// for Lifeguard. CrashAt stays a parameter for this test alone.
func TestChaosLifeguardBeatsSWIM(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix run")
	}
	p := chaosParams{FaultFor: 60 * time.Second, CrashAt: 5 * time.Second, Settle: 45 * time.Second}
	var recs []Record
	for _, proto := range []ProtocolConfig{ConfigSWIM, ConfigLifeguard} {
		rec, _, err := runChaosCell(ClusterConfig{N: 48, Seed: 1, Protocol: proto}, "degraded", p)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	t.Logf("\n%s", renderChaos(recs))
	swim, lifeguard := recs[0].Metrics, recs[1].Metrics
	// Both configurations must detect every real crash.
	for _, rec := range recs {
		if crashes := rec.Params["crashes"].(int); rec.Metrics["crashes_detected"] != float64(crashes) {
			t.Errorf("%s: detected %g of %d crashes", rec.Config, rec.Metrics["crashes_detected"], crashes)
		}
	}
	// The headline: strictly fewer false positives under Lifeguard.
	if lifeguard["fp"] >= swim["fp"] {
		t.Errorf("Lifeguard FP %g not strictly below SWIM FP %g", lifeguard["fp"], swim["fp"])
	}
	// The seed-1 crash-detection medians, pinned (see above).
	if got := [2]string{fmt.Sprintf("%.2f", swim["crash_detect_median_s"]), fmt.Sprintf("%.2f", lifeguard["crash_detect_median_s"])}; got != [2]string{"9.41", "10.41"} {
		t.Errorf("crash-detection medians SWIM %ss, Lifeguard %ss; pinned at 9.41s and 10.41s", got[0], got[1])
	}
	// The degradation must actually bite: SWIM's false positives are
	// the paper's motivating condition, not noise.
	if swim["fp"] < 100 {
		t.Errorf("SWIM produced only %g FP — degradation did not engage", swim["fp"])
	}
	if swim["suspicions"] == 0 || lifeguard["refuted"] == 0 {
		t.Errorf("suspicion machinery idle: SWIM susp %g, Lifeguard refuted %g",
			swim["suspicions"], lifeguard["refuted"])
	}
}

// TestChaosMatrixDeterminism pins same-seed reproducibility of the
// full scenario × configuration matrix: every cell — its record and
// the digest of its event log — must be identical across runs, and a
// different seed must actually change the runs.
func TestChaosMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("double chaos matrix run")
	}
	run := func(seed int64) (recs []Record, digests []string) {
		for _, scenario := range ChaosScenarioNames() {
			for _, proto := range Configurations {
				rec, events, err := runChaosCell(ClusterConfig{N: smallChaosN, Seed: seed, Protocol: proto}, scenario, smallChaosParams())
				if err != nil {
					t.Fatal(err)
				}
				recs, digests = append(recs, rec), append(digests, eventDigest(events))
			}
		}
		return recs, digests
	}
	a, aDigests := run(5)
	b, bDigests := run(5)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) || aDigests[i] != bDigests[i] {
			t.Errorf("same-seed cell %v/%s diverged:\n%+v %s\n%+v %s",
				a[i].Params["scenario"], a[i].Config, a[i], aDigests[i], b[i], bDigests[i])
		}
	}
	_, cDigests := run(6)
	same := 0
	for i := range aDigests {
		if aDigests[i] == cDigests[i] {
			same++
		}
	}
	if same == len(aDigests) {
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
			_, events, err := runChaosCell(ClusterConfig{N: smallChaosN, Seed: 3, Protocol: proto}, scenario, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatalf("%s/%s: empty event log", scenario, proto.Name)
			}
			checkInvariants(t, scenario+"/"+proto.Name, events)
		}
	}
}

// checkInvariants asserts the membership-protocol safety properties on
// one run's event log: per observer–subject stream, incarnations never
// decrease, and no member goes dead → alive without an incarnation
// bump.
func checkInvariants(t *testing.T, cell string, events []metrics.Event) {
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
		r := c.play(script{
			{op: opPause, node: victim, mode: sim.PauseDrop},
			{at: 7 * time.Second, op: opResume, node: victim},
		})
		if err := r.runTo(60 * time.Second); err != nil {
			t.Fatal(err)
		}

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

// eventDigest fingerprints a membership event log. Two runs with
// byte-identical protocol behaviour produce equal digests.
func eventDigest(events []metrics.Event) string {
	h := fnv.New64a()
	for _, ev := range events {
		fmt.Fprintf(h, "%d|%s|%s|%d|%d\n",
			ev.Time.UnixNano(), ev.Observer, ev.Subject, ev.Type, ev.Incarnation)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
