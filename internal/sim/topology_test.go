package sim

import (
	"math/rand"
	"testing"
	"time"
)

func wanTopology() *Topology {
	topo := NewTopology()
	topo.SetZone("a1", "alpha")
	topo.SetZone("a2", "alpha")
	topo.SetZone("b1", "beta")
	topo.SetZonePair("alpha", "beta", DelayDist{Base: 50 * time.Millisecond, Jitter: 10 * time.Millisecond})
	return topo
}

func TestTopologyZoneAssignment(t *testing.T) {
	topo := wanTopology()
	if got := topo.Zone("a1"); got != "alpha" {
		t.Errorf("Zone(a1) = %q", got)
	}
	if got := topo.Zone("stranger"); got != DefaultZone {
		t.Errorf("Zone(stranger) = %q, want %q", got, DefaultZone)
	}
}

func TestTopologyProfileResolutionOrder(t *testing.T) {
	topo := wanTopology()
	rng := rand.New(rand.NewSource(1))

	// Zone-pair profile for cross-zone traffic.
	for i := 0; i < 100; i++ {
		d := topo.Sample("a1", "b1", rng)
		if d < 50*time.Millisecond || d >= 60*time.Millisecond {
			t.Fatalf("cross-zone delay %v outside [50ms, 60ms)", d)
		}
	}
	// Intra-zone default for same-zone traffic.
	for i := 0; i < 100; i++ {
		d := topo.Sample("a1", "a2", rng)
		if d < 500*time.Microsecond || d >= time.Millisecond {
			t.Fatalf("intra-zone delay %v outside [500µs, 1ms)", d)
		}
	}
	// Inter-zone fallback when the pair has no profile.
	d := topo.Sample("a1", "stranger", rng)
	if d < topo.InterZone.Base || d >= topo.InterZone.Base+topo.InterZone.Jitter {
		t.Fatalf("fallback delay %v outside inter-zone profile", d)
	}
}

func TestTopologyGroundTruthRTT(t *testing.T) {
	topo := wanTopology()
	// Cross-zone: expected one-way is 50ms + 10ms/2 = 55ms each way.
	if got, want := topo.GroundTruthRTT("a1", "b1"), 110*time.Millisecond; got != want {
		t.Errorf("cross-zone ground truth = %v, want %v", got, want)
	}
	if got, want := topo.GroundTruthRTT("b1", "a1"), 110*time.Millisecond; got != want {
		t.Errorf("reverse ground truth = %v, want %v", got, want)
	}
	// Intra-zone: 500µs + 500µs/2 each way.
	if got, want := topo.GroundTruthRTT("a1", "a2"), 1500*time.Microsecond; got != want {
		t.Errorf("intra-zone ground truth = %v, want %v", got, want)
	}
}

// TestNetworkUsesTopology attaches two members in different zones and
// checks the delivery time matches the zone-pair profile rather than
// the flat default.
func TestNetworkUsesTopology(t *testing.T) {
	sched := NewScheduler(time.Unix(0, 0))
	topo := NewTopology()
	topo.SetZone("x", "west")
	topo.SetZone("y", "east")
	topo.SetZonePair("west", "east", DelayDist{Base: 80 * time.Millisecond}) // no jitter
	net := NewNetwork(sched, Options{Topology: topo, Seed: 1})

	var deliveredAt time.Time
	if _, err := net.Attach("y", func(from string, payload []byte) {
		deliveredAt = net.Clock().Now()
	}); err != nil {
		t.Fatal(err)
	}
	px, err := net.Attach("x", func(string, []byte) {})
	if err != nil {
		t.Fatal(err)
	}

	start := net.Clock().Now()
	if err := px.SendPacket("y", []byte("hi"), false); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(time.Second)

	if deliveredAt.IsZero() {
		t.Fatal("packet not delivered")
	}
	// Delivery = 80ms propagation + 100µs default service time.
	want := start.Add(80*time.Millisecond + 100*time.Microsecond)
	if !deliveredAt.Equal(want) {
		t.Errorf("delivered at %v, want %v", deliveredAt.Sub(start), want.Sub(start))
	}
}

// TestNetworkTopologyDeterminism: same seed, same topology → identical
// delay draws.
func TestNetworkTopologyDeterminism(t *testing.T) {
	draw := func() []time.Duration {
		topo := wanTopology()
		rng := rand.New(rand.NewSource(42))
		out := make([]time.Duration, 50)
		for i := range out {
			out[i] = topo.Sample("a1", "b1", rng)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}
