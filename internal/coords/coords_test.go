package coords

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

func newTestClient(t *testing.T, seed int64) *Client {
	t.Helper()
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(seed))
	cfg.Rand = rng.Float64
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConfigSurface pins Config's field set: the engine's tuning is
// constants, so a field is added only with a caller that sets it.
func TestConfigSurface(t *testing.T) {
	want := []string{"Rand"}
	typ := reflect.TypeOf(Config{})
	got := make([]string, typ.NumField())
	for i := range got {
		got[i] = typ.Field(i).Name
	}
	if !slices.Equal(got, want) {
		t.Fatalf("a new Config field needs a non-test caller that sets it (docs/ARCHITECTURE.md, Contracts)\n got %d: %v\nwant %d: %v",
			len(got), got, len(want), want)
	}
}

func TestNewCoordinateStartsAtOrigin(t *testing.T) {
	c := NewCoordinate(DefaultConfig())
	if len(c.Vec) != dimensionality {
		t.Fatalf("dimensionality: got %d, want %d", len(c.Vec), dimensionality)
	}
	for i, v := range c.Vec {
		if v != 0 {
			t.Fatalf("Vec[%d] = %v, want 0", i, v)
		}
	}
	if c.Error != vivaldiErrorMax {
		t.Fatalf("Error = %v, want %v", c.Error, vivaldiErrorMax)
	}
	if c.Height != heightMin {
		t.Fatalf("Height = %v, want %v", c.Height, heightMin)
	}
}

func TestDistanceToIsSymmetricAndIncludesHeights(t *testing.T) {
	a := &Coordinate{Vec: []float64{0.003, 0.004}, Height: 0.001}
	b := &Coordinate{Vec: []float64{0, 0}, Height: 0.002}
	want := 8 * time.Millisecond // 5ms Euclidean + 1ms + 2ms heights
	if got := a.DistanceTo(b); got != want {
		t.Fatalf("DistanceTo = %v, want %v", got, want)
	}
	if ab, ba := a.DistanceTo(b), b.DistanceTo(a); ab != ba {
		t.Fatalf("distance not symmetric: %v vs %v", ab, ba)
	}
}

func TestDistanceToIncompatibleIsZero(t *testing.T) {
	a := &Coordinate{Vec: []float64{1, 2}}
	b := &Coordinate{Vec: []float64{1, 2, 3}}
	if got := a.DistanceTo(b); got != 0 {
		t.Fatalf("incompatible distance = %v, want 0", got)
	}
}

func TestUpdateRejectsInvalidInputs(t *testing.T) {
	c := newTestClient(t, 1)
	before := c.Coordinate()

	bad := NewCoordinate(DefaultConfig())
	bad.Vec[0] = math.NaN()
	if _, err := c.Update("p", bad, 10*time.Millisecond); err == nil {
		t.Fatal("NaN coordinate accepted")
	}
	bad2 := NewCoordinate(DefaultConfig())
	bad2.Height = math.Inf(1)
	if _, err := c.Update("p", bad2, 10*time.Millisecond); err == nil {
		t.Fatal("Inf coordinate accepted")
	}
	short := &Coordinate{Vec: []float64{1}}
	if _, err := c.Update("p", short, 10*time.Millisecond); err == nil {
		t.Fatal("dimensionality mismatch accepted")
	}
	good := NewCoordinate(DefaultConfig())
	if _, err := c.Update("p", good, 0); err == nil {
		t.Fatal("zero RTT accepted")
	}
	if _, err := c.Update("p", good, time.Minute); err == nil {
		t.Fatal("absurd RTT accepted")
	}

	after := c.Coordinate()
	for i := range before.Vec {
		if before.Vec[i] != after.Vec[i] {
			t.Fatal("rejected update mutated the coordinate")
		}
	}
	if _, ok := c.EstimateRTT("p"); ok {
		t.Fatal("rejected update cached the peer coordinate")
	}
}

func TestUpdateMovesTowardMeasuredRTT(t *testing.T) {
	c := newTestClient(t, 2)
	peer := NewCoordinate(DefaultConfig())
	peer.Error = 0.01 // a confident peer pulls us hard

	const rtt = 100 * time.Millisecond
	var est time.Duration
	for i := 0; i < 50; i++ {
		if _, err := c.Update("p", peer, rtt); err != nil {
			t.Fatal(err)
		}
		est = c.Coordinate().DistanceTo(peer)
	}
	if relerr := math.Abs(est.Seconds()-rtt.Seconds()) / rtt.Seconds(); relerr > 0.1 {
		t.Fatalf("after 50 updates estimate %v vs true %v (rel err %.2f)", est, rtt, relerr)
	}
	if e := c.Coordinate().Error; e >= vivaldiErrorMax {
		t.Fatalf("error estimate did not improve: %v", e)
	}
}

// TestLatencyFilterSuppressesOutlier checks that one absurd-but-legal
// sample inside the median window leaves the coordinate exactly where a
// run without the spike puts it.
func TestLatencyFilterSuppressesOutlier(t *testing.T) {
	run := func(spike bool) time.Duration {
		c := newTestClient(t, 3)
		peer := NewCoordinate(DefaultConfig())
		peer.Error = 0.01
		for i := 0; i < 30; i++ {
			rtt := 20 * time.Millisecond
			if spike && i == 28 {
				rtt = 2 * time.Second // queueing spike
			}
			if _, err := c.Update("p", peer, rtt); err != nil {
				t.Fatal(err)
			}
		}
		return c.Coordinate().DistanceTo(peer)
	}

	filtered, clean := run(true), run(false)
	if filtered != clean {
		t.Fatalf("spike moved the estimate: %v with it, %v without", filtered, clean)
	}
	trueRTT := 20 * time.Millisecond
	if math.Abs(filtered.Seconds()-trueRTT.Seconds()) > 0.01 {
		t.Fatalf("filtered estimate too far off: %v vs %v", filtered, trueRTT)
	}
}

// TestPeerRecordAllocs pins what the per-peer state costs: a new
// peer's Witness and first Observe allocate its record once — at most
// two allocations, the record and the float array its coordinate and
// window share (the two-map engine paid three: Clone's two and the
// window's one) — and a known peer's allocate nothing. The map is
// pre-sized so its growth stays out of the count. The filter returns the
// median of a plain sliding window.
func TestPeerRecordAllocs(t *testing.T) {
	c := newTestClient(t, 1)
	const size = latencyFilterSize
	const peers = 64
	names := make([]string, peers+1) // AllocsPerRun adds a warm-up run
	for i := range names {
		names[i] = fmt.Sprintf("peer-%02d", i)
	}
	c.peers = make(map[string]*peer, len(names))
	other := NewCoordinate(DefaultConfig())
	other.Error = 0.5
	other.Vec[0] = 0.01
	next := 0
	allocs := testing.AllocsPerRun(peers, func() {
		peer := names[next]
		next++
		c.Witness(peer, other)
		if err := c.Observe(peer, other, 20*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("a new peer's Witness and Observe allocate %.0f times, want at most 2", allocs)
	}
	next = 0
	allocs = testing.AllocsPerRun(peers, func() {
		peer := names[next]
		next++
		c.Witness(peer, other)
		for i := 0; i < size+2; i++ {
			if err := c.Observe(peer, other, time.Duration(i+1)*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a known peer's Witness and %d observations allocate %.0f times, want 0", size+2, allocs)
	}
	if w := c.peers[names[0]].window; len(w) != size || cap(w) != size {
		t.Fatalf("window len %d cap %d, want %d and %d", len(w), cap(w), size, size)
	}

	rng := rand.New(rand.NewSource(7))
	ref := c.peer("ref")
	var window []float64
	for i := 0; i < 50; i++ {
		x := rng.Float64()
		window = append(window, x)
		if len(window) > size {
			window = window[1:]
		}
		sorted := slices.Clone(window)
		slices.Sort(sorted)
		if got, want := c.latencyFilter(ref, x), sorted[len(sorted)/2]; got != want {
			t.Fatalf("observation %d: median %v, want %v", i, got, want)
		}
	}
}

// TestClientConvergenceOnSyntheticTopology embeds a clique of 8 nodes
// with a known RTT matrix (two "zones" 100 ms apart, 5 ms inside) and
// checks the median relative estimation error drops below 25%.
func TestClientConvergenceOnSyntheticTopology(t *testing.T) {
	const n = 8
	zone := func(i int) int { return i % 2 }
	trueRTT := func(i, j int) time.Duration {
		if zone(i) == zone(j) {
			return 5 * time.Millisecond
		}
		return 100 * time.Millisecond
	}

	clients := make([]*Client, n)
	names := make([]string, n)
	for i := range clients {
		cfg := DefaultConfig()
		rng := rand.New(rand.NewSource(int64(i) + 100))
		cfg.Rand = rng.Float64
		c, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		names[i] = string(rune('a' + i))
	}

	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 150; round++ {
		for i := range clients {
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			// ±10% jitter on the observed RTT.
			rtt := time.Duration(float64(trueRTT(i, j)) * (0.9 + 0.2*rng.Float64()))
			if _, err := clients[i].Update(names[j], clients[j].Coordinate(), rtt); err != nil {
				t.Fatal(err)
			}
		}
	}

	var relErrs []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			est := clients[i].Coordinate().DistanceTo(clients[j].Coordinate())
			truth := trueRTT(i, j)
			relErrs = append(relErrs, math.Abs(est.Seconds()-truth.Seconds())/truth.Seconds())
		}
	}
	median := medianOf(relErrs)
	if median > 0.25 {
		t.Fatalf("median relative error %.3f > 0.25 (errors: %v)", median, relErrs)
	}
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func TestUpdateIsDeterministicForSameSeed(t *testing.T) {
	run := func() *Coordinate {
		c := newTestClient(t, 42)
		peer := NewCoordinate(DefaultConfig())
		for i := 0; i < 20; i++ {
			// Coincident starting coordinates force the random
			// unit-vector path, the only randomness in the engine.
			if _, err := c.Update("p", peer, 30*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		return c.Coordinate()
	}
	a, b := run(), run()
	for i := range a.Vec {
		if a.Vec[i] != b.Vec[i] {
			t.Fatalf("same-seed runs diverged at Vec[%d]: %v vs %v", i, a.Vec[i], b.Vec[i])
		}
	}
	if a.Height != b.Height || a.Error != b.Error || a.Adjustment != b.Adjustment {
		t.Fatal("same-seed runs diverged in scalar components")
	}
}

func TestWitnessAndEstimateRTT(t *testing.T) {
	c := newTestClient(t, 5)
	if _, ok := c.EstimateRTT("unknown"); ok {
		t.Fatal("estimate for unknown peer")
	}
	peer := NewCoordinate(DefaultConfig())
	peer.Vec[0] = 0.025
	c.Witness("p", peer)
	est, ok := c.EstimateRTT("p")
	if !ok {
		t.Fatal("no estimate after Witness")
	}
	if want := c.Coordinate().DistanceTo(peer); est != want {
		t.Fatalf("estimate %v, want %v", est, want)
	}

	bad := NewCoordinate(DefaultConfig())
	bad.Vec[0] = math.NaN()
	c.Witness("q", bad)
	if _, ok := c.EstimateRTT("q"); ok {
		t.Fatal("invalid witnessed coordinate cached")
	}

	c.Forget("p")
	if _, ok := c.EstimateRTT("p"); ok {
		t.Fatal("estimate survived Forget")
	}
}

// TestNearestPeerIndexes exercises the deterministic nearest-k ranking
// behind coordinate-aware relay and gossip selection.
func TestNearestPeerIndexes(t *testing.T) {
	c, err := NewClient(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	place := func(name string, x float64) {
		co := NewCoordinate(DefaultConfig())
		co.Vec[0] = x
		co.Error = 0.1
		if !c.Witness(name, co) {
			t.Fatalf("witness %s rejected", name)
		}
	}
	place("target", 0.100)
	place("near", 0.110)
	place("mid", 0.200)
	place("far", 0.900)
	place("twin-b", 0.300)
	place("twin-a", 0.300)

	nearest := func(ref string, candidates []string, k int) []string {
		var out []string
		for _, i := range c.NearestPeerIndexes(ref, candidates, k, nil) {
			out = append(out, candidates[i])
		}
		return out
	}
	// Ranking from a peer; "unknown" has no cached coordinate and is
	// skipped rather than ranked.
	got := nearest("target", []string{"far", "mid", "near", "unknown"}, 2)
	if !slices.Equal(got, []string{"near", "mid"}) {
		t.Errorf("ranked from target = %v, want [near mid]", got)
	}
	// Candidate order must not change the ranking.
	if again := nearest("target", []string{"near", "unknown", "mid", "far"}, 2); !slices.Equal(again, got) {
		t.Errorf("ranking depends on candidate order: %v vs %v", again, got)
	}
	// Empty ref ranks from the local coordinate (at the origin here).
	if fromSelf := nearest("", []string{"far", "target", "near"}, 3); !slices.Equal(fromSelf, []string{"target", "near", "far"}) {
		t.Errorf("ranked from self = %v, want [target near far]", fromSelf)
	}
	// Equal distances break by name, whatever the candidate order.
	if tie := nearest("target", []string{"twin-b", "twin-a"}, 2); !slices.Equal(tie, []string{"twin-a", "twin-b"}) {
		t.Errorf("tie = %v, want [twin-a twin-b]", tie)
	}
	// Only uncached candidates: nothing to rank.
	if cold := nearest("target", []string{"unknown", "other"}, 2); len(cold) != 0 {
		t.Errorf("uncached candidates ranked: %v", cold)
	}
	// An unknown ref leaves out unchanged.
	out := []int{7}
	if res := c.NearestPeerIndexes("unknown", []string{"near"}, 1, out); !slices.Equal(res, out) {
		t.Errorf("unknown ref produced a ranking: %v", res)
	}
}
