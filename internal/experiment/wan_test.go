package experiment

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"lifeguard/internal/sim"
	"lifeguard/internal/telemetry"
)

// smallWANParams is a 3-zone, 48-member configuration for quick tests.
func smallWANParams() WANParams {
	ms := time.Millisecond
	return WANParams{
		Zones: []WANZone{
			{Name: "us", Members: 16},
			{Name: "eu", Members: 16},
			{Name: "ap", Members: 16},
		},
		Pairs: map[[2]string]sim.DelayDist{
			{"us", "eu"}: {Base: 40 * ms, Jitter: 4 * ms},
			{"us", "ap"}: {Base: 80 * ms, Jitter: 8 * ms},
			{"eu", "ap"}: {Base: 120 * ms, Jitter: 12 * ms},
		},
		Converge:      2 * time.Minute,
		SamplePairs:   500,
		FailPerZone:   2,
		DetectHorizon: 60 * time.Second,
	}
}

// obsRTTPairErrs returns a record's per-zone-pair observed-RTT errors
// under prefix ("obs_rtt_p50_err_" or "obs_rtt_p90_err_"), keyed by the
// pair, without the medians over the pairs.
func obsRTTPairErrs(m map[string]float64, prefix string) map[string]float64 {
	out := map[string]float64{}
	for key, v := range m {
		if pair, ok := strings.CutPrefix(key, prefix); ok && strings.Contains(pair, "__") {
			out[pair] = v
		}
	}
	return out
}

// TestWANSmallCluster exercises the whole WAN pipeline at small scale:
// coordinates must beat 35% median error after two minutes, and every
// crashed member must be detected, in every zone.
func TestWANSmallCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN run")
	}
	rec, err := RunWAN(
		ClusterConfig{Seed: 21, Protocol: ConfigLifeguard},
		smallWANParams(),
	)
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Metrics
	t.Logf("%v", m)
	if rec.Params["members"] != 48 {
		t.Fatalf("members = %v, want 48", rec.Params["members"])
	}
	if m["pairs_scored"] < 500 {
		t.Fatalf("scored %g pairs, want 500", m["pairs_scored"])
	}
	if m["coord_rel_err_median"] > 0.35 {
		t.Errorf("median coordinate error %.1f%% > 35%%", m["coord_rel_err_median"]*100)
	}
	for _, z := range smallWANParams().Zones {
		if m["failed_"+z.Name] != 2 {
			t.Errorf("zone %s: %g failed, want 2", z.Name, m["failed_"+z.Name])
		}
		if m["detected_"+z.Name] != m["failed_"+z.Name] {
			t.Errorf("zone %s: detected %g of %g failures", z.Name, m["detected_"+z.Name], m["failed_"+z.Name])
		}
	}
}

// TestWANDeterminism pins that same-seed WAN runs produce identical
// records (the simulation contract the whole evaluation rests on), and
// that a different seed actually changes the run.
func TestWANDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN run")
	}
	p := smallWANParams()
	p.Converge = 30 * time.Second
	p.FailPerZone = 1
	p.DetectHorizon = 45 * time.Second

	run := func(seed int64) Record {
		rec, err := RunWAN(ClusterConfig{Seed: seed, Protocol: ConfigLifeguard}, p)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	a, b := run(5), run(5)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed WAN records diverged:\n%v\n%v", a.Metrics, b.Metrics)
	}
	c := run(6)
	same := true
	for _, key := range []string{"coord_rel_err_median", "coord_rel_err_p99", "coord_abs_err_mean_s"} {
		same = same && a.Metrics[key] == c.Metrics[key]
	}
	if same {
		t.Error("different seeds produced identical coordinate metrics (suspicious)")
	}
}

// TestClusterTelemetryPairs pins what a telemetry-enabled cluster
// keeps: RTT samples attributed to (origin, peer), every one of them in
// the order recorded, and nothing from the hooks the experiments score
// through other sinks.
func TestClusterTelemetryPairs(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 3, Seed: 1, Protocol: ConfigLifeguard, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	va := rttRecorder{samples: c.Telem, origin: "a"}
	vb := rttRecorder{samples: c.Telem, origin: "b"}
	va.RecordRTT("b", 10*time.Millisecond)
	va.RecordRTT("b", 12*time.Millisecond)
	vb.RecordRTT("a", 11*time.Millisecond)
	var bc []time.Duration
	for i := 1; i <= 70; i++ {
		vb.RecordRTT("c", time.Duration(i)*time.Millisecond)
		bc = append(bc, time.Duration(i)*time.Millisecond)
	}

	// The discarded hooks must not contribute samples.
	va.RecordProbe("b", telemetry.OutcomeTimeout)
	va.RecordLHM(3)
	va.RecordSuspicion("b", time.Second, false)

	want := map[RTTPair][]time.Duration{
		{Origin: "a", Peer: "b"}: {10 * time.Millisecond, 12 * time.Millisecond},
		{Origin: "b", Peer: "a"}: {11 * time.Millisecond},
		{Origin: "b", Peer: "c"}: bc,
	}
	if !reflect.DeepEqual(c.Telem, want) {
		t.Errorf("samples = %v, want %v", c.Telem, want)
	}
}

// TestWANTelemetryDoesNotPerturb pins the telemetry determinism
// contract: enabling cluster telemetry must not change a single
// protocol-level metric — recording is write-only bookkeeping, never
// an RNG draw or a scheduled event — while the telemetry-only
// observed-RTT metrics appear.
func TestWANTelemetryDoesNotPerturb(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN run")
	}
	p := smallWANParams()
	p.Converge = 30 * time.Second
	p.FailPerZone = 1
	p.DetectHorizon = 45 * time.Second

	run := func(telem bool) Record {
		rec, err := RunWAN(ClusterConfig{Seed: 5, Protocol: ConfigLifeguard, Telemetry: telem}, p)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	off, on := run(false), run(true)
	protocol := func(m map[string]float64) map[string]float64 {
		out := map[string]float64{}
		for key, v := range m {
			if !strings.HasPrefix(key, "obs_rtt_") {
				out[key] = v
			}
		}
		return out
	}
	if !reflect.DeepEqual(protocol(off.Metrics), protocol(on.Metrics)) {
		t.Errorf("telemetry changed protocol metrics:\n%v\n%v", protocol(off.Metrics), protocol(on.Metrics))
	}
	if off.Metrics["obs_rtt_samples"] != 0 || len(obsRTTPairErrs(off.Metrics, "obs_rtt_p50_err_")) != 0 {
		t.Errorf("telemetry-off run scored observed RTTs: %g samples", off.Metrics["obs_rtt_samples"])
	}
	onPairs := obsRTTPairErrs(on.Metrics, "obs_rtt_p50_err_")
	if on.Metrics["obs_rtt_samples"] == 0 || len(onPairs) == 0 {
		t.Fatal("telemetry-on run recorded no RTT samples")
	}
	// Direct-path RTT medians should track the simulator's ground truth
	// well within a factor of two on every zone pair.
	for pair, e := range onPairs {
		if e > 1.0 {
			t.Errorf("pair %s: observed p50 off by %.0f%% from ground truth", pair, e*100)
		}
	}
}

// TestWANObservedRTTDeterminism pins bitwise same-seed reproducibility
// of the telemetry-scored metrics. The cluster's sample lists sit in a
// map, visited in randomized order, and float addition is not
// associative, so the scoring must fix its accumulation order for the
// CI determinism guard's byte-diff of records to hold across runs and
// processes.
func TestWANObservedRTTDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN run")
	}
	p := smallWANParams()
	for i := range p.Zones {
		p.Zones[i].Members = 8
	}
	p.Converge = 20 * time.Second
	p.SamplePairs = 100
	p.FailPerZone = 0 // skip the detection phase

	run := func() Record {
		rec, err := RunWAN(ClusterConfig{Seed: 9, Protocol: ConfigLifeguard, Telemetry: true}, p)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	a, b := run(), run()
	if a.Metrics["obs_rtt_samples"] == 0 {
		t.Fatal("no RTT samples recorded")
	}
	for _, prefix := range []string{"obs_rtt_p50_err_", "obs_rtt_p90_err_"} {
		if len(obsRTTPairErrs(a.Metrics, prefix)) == 0 {
			t.Fatalf("no %s pair metrics", prefix)
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed observed-RTT records differ:\n%v\n%v", a.Metrics, b.Metrics)
	}
}

// TestWANAdaptiveDeterminism pins same-seed reproducibility of the
// topology-aware configuration: the adaptive timeouts, relay selection
// and gossip bias must stay pure functions of the seed, including the
// counters that track them.
func TestWANAdaptiveDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN run")
	}
	p := smallWANParams()
	p.Converge = 30 * time.Second
	p.FailPerZone = 1
	p.DetectHorizon = 45 * time.Second

	run := func() Record {
		rec, err := RunWAN(ClusterConfig{Seed: 5, Protocol: ConfigLifeguard, TopologyAware: true}, p)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed adaptive records diverged:\n%v\n%v", a.Metrics, b.Metrics)
	}
	if a.Metrics["adaptive_timeouts"] == 0 {
		t.Error("adaptive run took no adaptive timeouts")
	}
}

// TestWANAdaptiveBeatsStatic is the acceptance bar for topology-aware
// failure detection: on the canonical 512-member, 4-zone WAN with the
// same seed and the same injected failures, the adaptive configuration
// must achieve a strictly lower median cross-zone detection latency
// than the static baseline, at equal or fewer false positives, without
// missing any failure.
func TestWANAdaptiveBeatsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("large WAN comparison run")
	}
	zones, pairs := DefaultWANZones(128)
	p := WANParams{
		Zones:    zones,
		Pairs:    pairs,
		Converge: 5 * time.Minute,
		// 8 crashes per zone = 32 latency samples, enough for the
		// median comparison to clear per-seed scheduling noise.
		SamplePairs:   2000,
		FailPerZone:   8,
		DetectHorizon: 90 * time.Second,
	}
	var recs []Record
	for _, adaptive := range []bool{false, true} {
		rec, err := RunWAN(ClusterConfig{Seed: 31, Protocol: ConfigLifeguard, TopologyAware: adaptive}, p)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	t.Logf("\n%s", renderWAN(recs, RunOptions{}))
	for _, rec := range recs {
		if rec.Params["members"] != 512 {
			t.Fatalf("members = %v, want 512", rec.Params["members"])
		}
		detected, failed := 0.0, 0.0
		for _, z := range zones {
			detected += rec.Metrics["detected_"+z.Name]
			failed += rec.Metrics["failed_"+z.Name]
		}
		if detected != failed {
			t.Errorf("only %g of %g crashed members detected", detected, failed)
		}
	}
	static, adaptive := recs[0].Metrics, recs[1].Metrics
	if s, a := static["detect_cross_zone_median_s"], adaptive["detect_cross_zone_median_s"]; a >= s {
		t.Errorf("adaptive cross-zone detection median %.2fs not better than static %.2fs", a, s)
	}
	if adaptive["fp"] > static["fp"] {
		t.Errorf("adaptive FP %g exceeds static %g", adaptive["fp"], static["fp"])
	}
	// The comparison is only meaningful if the extensions engaged.
	if adaptive["adaptive_timeouts"] == 0 || adaptive["gossip_near_picks"] == 0 {
		t.Errorf("adaptive run barely engaged: %g adaptive timeouts, %g near gossip picks",
			adaptive["adaptive_timeouts"], adaptive["gossip_near_picks"])
	}
	if static["adaptive_timeouts"] != 0 {
		t.Errorf("static run took %g adaptive timeouts", static["adaptive_timeouts"])
	}
}

// TestWANLargeClusterConvergence is the acceptance bar for the WAN
// subsystem: a 512-member, 4-zone cluster must converge to ≤ 25%
// median relative RTT-estimation error against the simulator's ground
// truth.
func TestWANLargeClusterConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("large WAN run")
	}
	zones, pairs := DefaultWANZones(128)
	rec, err := RunWAN(
		ClusterConfig{Seed: 31, Protocol: ConfigLifeguard},
		WANParams{
			Zones:         zones,
			Pairs:         pairs,
			Converge:      5 * time.Minute,
			SamplePairs:   2000,
			FailPerZone:   3,
			DetectHorizon: 90 * time.Second,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	wanRun(&b, rec, RunOptions{})
	t.Logf("\n%s", b.String())
	if rec.Params["members"] != 512 {
		t.Fatalf("members = %v, want 512", rec.Params["members"])
	}
	if e := rec.Metrics["coord_rel_err_median"]; e > 0.25 {
		t.Errorf("median relative RTT-estimation error %.1f%% exceeds the 25%% acceptance bar", e*100)
	}
	detected := 0.0
	for _, z := range zones {
		detected += rec.Metrics["detected_"+z.Name]
	}
	if want := 4 * 3; detected < float64(want-1) {
		t.Errorf("only %g of %d crashed members detected", detected, want)
	}
}
