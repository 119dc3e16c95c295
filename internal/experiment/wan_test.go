package experiment

import (
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
		Intra: sim.LinkProfile{Base: ms, Jitter: 200 * time.Microsecond},
		Pairs: map[[2]string]sim.LinkProfile{
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

// TestWANSmallCluster exercises the whole WAN pipeline at small scale:
// coordinates must beat 35% median error after two minutes, and every
// crashed member must be detected, in every zone.
func TestWANSmallCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN run")
	}
	res, err := RunWAN(
		ClusterConfig{Seed: 21, Protocol: ConfigLifeguard},
		smallWANParams(),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatWAN(res))
	if res.N != 48 {
		t.Fatalf("N = %d, want 48", res.N)
	}
	if res.PairsScored < 500 {
		t.Fatalf("scored %d pairs, want 500", res.PairsScored)
	}
	if res.CoordErr.Median > 0.35 {
		t.Errorf("median coordinate error %.1f%% > 35%%", res.CoordErr.Median*100)
	}
	if len(res.PerZone) != 3 {
		t.Fatalf("PerZone has %d entries, want 3", len(res.PerZone))
	}
	for _, z := range res.PerZone {
		if z.Failed != 2 {
			t.Errorf("zone %s: %d failed, want 2", z.Zone, z.Failed)
		}
		if z.Detected != z.Failed {
			t.Errorf("zone %s: detected %d of %d failures", z.Zone, z.Detected, z.Failed)
		}
	}
}

// TestWANDeterminism pins that same-seed WAN runs are bit-identical in
// their reported metrics (the simulation contract the whole evaluation
// rests on), and that a different seed actually changes the run.
func TestWANDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN run")
	}
	p := smallWANParams()
	p.Converge = 30 * time.Second
	p.FailPerZone = 1
	p.DetectHorizon = 45 * time.Second

	run := func(seed int64) WANResult {
		res, err := RunWAN(ClusterConfig{Seed: seed, Protocol: ConfigLifeguard}, p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(5), run(5)
	if a.CoordErr != b.CoordErr || a.MeanAbsErr != b.MeanAbsErr {
		t.Errorf("same-seed coordinate metrics diverged:\n%+v\n%+v", a.CoordErr, b.CoordErr)
	}
	if a.FP != b.FP || a.FPHealthy != b.FPHealthy {
		t.Errorf("same-seed FP counts diverged: %d/%d vs %d/%d", a.FP, a.FPHealthy, b.FP, b.FPHealthy)
	}
	for i := range a.PerZone {
		if a.PerZone[i] != b.PerZone[i] {
			t.Errorf("same-seed zone %s diverged:\n%+v\n%+v", a.PerZone[i].Zone, a.PerZone[i], b.PerZone[i])
		}
	}
	c := run(6)
	if a.CoordErr == c.CoordErr {
		t.Error("different seeds produced identical coordinate metrics (suspicious)")
	}
}

// TestClusterTelemetryPairs pins what a telemetry-enabled cluster
// keeps: RTT samples attributed to (origin, peer), the latest 64 per
// pair, room for every pair of members, and nothing from the hooks the
// experiments score through other sinks.
func TestClusterTelemetryPairs(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 3, Seed: 1, Protocol: ConfigLifeguard, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if got := c.Telem.MaxSamples(); got != 3*3*64 {
		t.Errorf("MaxSamples = %d, want N² pairs of 64", got)
	}
	va := rttRecorder{buf: c.Telem, origin: "a"}
	vb := rttRecorder{buf: c.Telem, origin: "b"}
	va.RecordRTT("b", 10*time.Millisecond)
	va.RecordRTT("b", 12*time.Millisecond)
	vb.RecordRTT("a", 11*time.Millisecond)
	for i := 1; i <= 70; i++ {
		vb.RecordRTT("c", time.Duration(i)*time.Millisecond)
	}

	// The discarded hooks must not contribute samples.
	va.RecordProbe("b", telemetry.OutcomeTimeout)
	va.RecordLHM(3)
	va.RecordSuspicion("b", time.Second, false)

	got := map[RTTPair][]time.Duration{}
	c.Telem.ForEach(func(k RTTPair, ss []time.Duration) { got[k] = ss })
	if len(got) != 3 {
		t.Fatalf("partitions = %v, want a→b, b→a, b→c", got)
	}
	if ss := got[RTTPair{Origin: "a", Peer: "b"}]; len(ss) != 2 || ss[0] != 10*time.Millisecond || ss[1] != 12*time.Millisecond {
		t.Errorf("a→b samples = %v", ss)
	}
	if ss := got[RTTPair{Origin: "b", Peer: "a"}]; len(ss) != 1 || ss[0] != 11*time.Millisecond {
		t.Errorf("b→a samples = %v", ss)
	}
	if ss := got[RTTPair{Origin: "b", Peer: "c"}]; len(ss) != 64 || ss[0] != 7*time.Millisecond || ss[63] != 70*time.Millisecond {
		t.Errorf("b→c kept %d samples, want the latest 64 (7ms..70ms)", len(ss))
	}
	if c.Telem.Evictions() != 0 {
		t.Errorf("evictions = %d", c.Telem.Evictions())
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

	run := func(telem bool) WANResult {
		res, err := RunWAN(ClusterConfig{Seed: 5, Protocol: ConfigLifeguard, Telemetry: telem}, p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := run(false), run(true)
	if off.CoordErr != on.CoordErr || off.MeanAbsErr != on.MeanAbsErr {
		t.Errorf("telemetry changed coordinate metrics:\n%+v\n%+v", off.CoordErr, on.CoordErr)
	}
	if off.FP != on.FP || off.MsgsSent != on.MsgsSent || off.BytesSent != on.BytesSent {
		t.Errorf("telemetry changed load: FP %d/%d msgs %d/%d bytes %d/%d",
			off.FP, on.FP, off.MsgsSent, on.MsgsSent, off.BytesSent, on.BytesSent)
	}
	for i := range off.PerZone {
		if off.PerZone[i] != on.PerZone[i] {
			t.Errorf("telemetry changed zone %s:\n%+v\n%+v", off.PerZone[i].Zone, off.PerZone[i], on.PerZone[i])
		}
	}
	if off.ObsRTTSamples != 0 || len(off.ObsRTTPairs) != 0 {
		t.Errorf("telemetry-off run scored observed RTTs: %d samples", off.ObsRTTSamples)
	}
	if on.ObsRTTSamples == 0 || len(on.ObsRTTPairs) == 0 {
		t.Fatal("telemetry-on run recorded no RTT samples")
	}
	// Direct-path RTT medians should track the simulator's ground truth
	// well within a factor of two on every zone pair.
	for _, pe := range on.ObsRTTPairs {
		if pe.P50RelErr > 1.0 {
			t.Errorf("pair %s-%s: observed p50 off by %.0f%% from ground truth",
				pe.ZoneA, pe.ZoneB, pe.P50RelErr*100)
		}
	}
}

// TestWANObservedRTTDeterminism pins bitwise same-seed reproducibility
// of the telemetry-scored metrics. Buffer.ForEach visits partitions in
// randomized map order and float addition is not associative, so the
// scoring must fix its accumulation order — and never lose samples to
// partition eviction — for the CI determinism guard's byte-diff of
// records to hold across runs and processes.
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

	run := func() WANResult {
		res, err := RunWAN(ClusterConfig{Seed: 9, Protocol: ConfigLifeguard, Telemetry: true}, p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ObsRTTSamples == 0 {
		t.Fatal("no RTT samples recorded")
	}
	if a.ObsRTTSamples != b.ObsRTTSamples {
		t.Errorf("obs_rtt_samples %d vs %d", a.ObsRTTSamples, b.ObsRTTSamples)
	}
	if a.ObsRTTP50ErrMedian != b.ObsRTTP50ErrMedian || a.ObsRTTP90ErrMedian != b.ObsRTTP90ErrMedian {
		t.Errorf("err medians differ: p50 %v/%v p90 %v/%v",
			a.ObsRTTP50ErrMedian, b.ObsRTTP50ErrMedian, a.ObsRTTP90ErrMedian, b.ObsRTTP90ErrMedian)
	}
	if len(a.ObsRTTPairs) != len(b.ObsRTTPairs) {
		t.Fatalf("pair counts differ: %d vs %d", len(a.ObsRTTPairs), len(b.ObsRTTPairs))
	}
	for i := range a.ObsRTTPairs {
		if a.ObsRTTPairs[i] != b.ObsRTTPairs[i] {
			t.Errorf("pair %d differs:\n%+v\n%+v", i, a.ObsRTTPairs[i], b.ObsRTTPairs[i])
		}
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

	run := func() WANResult {
		res, err := RunWAN(ClusterConfig{Seed: 5, Protocol: ConfigLifeguard, TopologyAware: true}, p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.CoordErr != b.CoordErr || a.CrossZoneDetect != b.CrossZoneDetect {
		t.Errorf("same-seed adaptive metrics diverged:\n%+v %+v\n%+v %+v",
			a.CoordErr, a.CrossZoneDetect, b.CoordErr, b.CrossZoneDetect)
	}
	if a.FP != b.FP || a.MsgsSent != b.MsgsSent || a.BytesSent != b.BytesSent {
		t.Errorf("same-seed load diverged: FP %d/%d msgs %d/%d bytes %d/%d",
			a.FP, b.FP, a.MsgsSent, b.MsgsSent, a.BytesSent, b.BytesSent)
	}
	if a.AdaptiveTimeouts != b.AdaptiveTimeouts || a.RelayNear != b.RelayNear ||
		a.RelayRandom != b.RelayRandom || a.GossipNear != b.GossipNear || a.GossipEscape != b.GossipEscape {
		t.Errorf("same-seed adaptive counters diverged:\n%+v\n%+v", a, b)
	}
	if a.AdaptiveTimeouts == 0 {
		t.Error("adaptive run took no adaptive timeouts")
	}
	for i := range a.PerZone {
		if a.PerZone[i] != b.PerZone[i] {
			t.Errorf("same-seed zone %s diverged:\n%+v\n%+v", a.PerZone[i].Zone, a.PerZone[i], b.PerZone[i])
		}
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
	cmp, err := RunWANComparison(
		ClusterConfig{Seed: 31, Protocol: ConfigLifeguard},
		WANParams{
			Zones:    zones,
			Pairs:    pairs,
			Converge: 5 * time.Minute,
			// 8 crashes per zone = 32 latency samples, enough for the
			// median comparison to clear per-seed scheduling noise.
			SamplePairs:   2000,
			FailPerZone:   8,
			DetectHorizon: 90 * time.Second,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatWANComparison(cmp))
	if cmp.Static.N != 512 || cmp.Adaptive.N != 512 {
		t.Fatalf("N = %d/%d, want 512", cmp.Static.N, cmp.Adaptive.N)
	}
	for _, r := range []WANResult{cmp.Static, cmp.Adaptive} {
		detected, failed := 0, 0
		for _, z := range r.PerZone {
			detected += z.Detected
			failed += z.Failed
		}
		if detected != failed {
			t.Errorf("only %d of %d crashed members detected", detected, failed)
		}
	}
	if s, a := cmp.Static.CrossZoneDetect.Median, cmp.Adaptive.CrossZoneDetect.Median; a >= s {
		t.Errorf("adaptive cross-zone detection median %.2fs not better than static %.2fs", a, s)
	}
	if cmp.Adaptive.FP > cmp.Static.FP {
		t.Errorf("adaptive FP %d exceeds static %d", cmp.Adaptive.FP, cmp.Static.FP)
	}
	// The comparison is only meaningful if the extensions engaged.
	if cmp.Adaptive.AdaptiveTimeouts == 0 || cmp.Adaptive.GossipNear == 0 {
		t.Errorf("adaptive run barely engaged: %d adaptive timeouts, %d near gossip picks",
			cmp.Adaptive.AdaptiveTimeouts, cmp.Adaptive.GossipNear)
	}
	if cmp.Static.AdaptiveTimeouts != 0 {
		t.Errorf("static run took %d adaptive timeouts", cmp.Static.AdaptiveTimeouts)
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
	res, err := RunWAN(
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
	t.Logf("\n%s", FormatWAN(res))
	if res.N != 512 {
		t.Fatalf("N = %d, want 512", res.N)
	}
	if res.CoordErr.Median > 0.25 {
		t.Errorf("median relative RTT-estimation error %.1f%% exceeds the 25%% acceptance bar",
			res.CoordErr.Median*100)
	}
	detected := 0
	for _, z := range res.PerZone {
		detected += z.Detected
	}
	if want := 4 * 3; detected < want-1 {
		t.Errorf("only %d of %d crashed members detected", detected, want)
	}
}
