package experiment

import (
	"runtime"
	"testing"
	"time"
)

// bootBytesPerPair bounds what a booted N = 384 Lifeguard cluster
// retains per observer–subject pair: 373 B measured, plus 10 %. A node
// that kept its own push-pull table and an event log of pointerful
// records in a doubling array retained 529 B.
const bootBytesPerPair = 410

// steadyAllocPerPair bounds what sim-steady's 400 s phase allocates at
// N = 128 per observer–subject pair, and steadyRetainedPerPair what the
// cluster retains after it: 247 B and 681 B measured, plus 10 %. With
// each peer in two coordinate maps (a Clone per new peer, a window
// written back per sample) and one packet-buffer pool for every size,
// the phase allocated 410 B per pair (6.4 MB) and the cluster retained
// 757 B.
const (
	steadyAllocPerPair    = 272
	steadyRetainedPerPair = 749
)

// wanTelemetryBytesPerSample bounds the heap the smoke WAN cluster's
// telemetry retains per RTT sample after its convergence phase: 91 B
// measured, plus 10 %. Partitions of 64 preallocated slots each, one
// per (origin, peer), retained 458–459 B.
const wanTelemetryBytesPerSample = 100

// TestBootFootprint boots N = 384 members to a converged view and checks
// the heap the cluster retains after a collection, per observer–subject
// pair: member records, per-peer state, queues and the event log, with
// no per-node scratch left over from the boot's exchanges.
func TestBootFootprint(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("boots 384 members and sizes their heap")
	}
	const n = 384
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := NewCluster(ClusterConfig{N: n, Seed: 1, Protocol: ConfigLifeguard})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(Quiesce + bootstrapWindow(n)); err != nil {
		t.Fatal(err)
	}
	for waited := 0; ; waited++ {
		converged := true
		for _, node := range c.Nodes {
			converged = converged && node.NumAlive() == n
		}
		if converged {
			break
		}
		if waited == 60 {
			t.Fatalf("%d members not converged 60 s after boot", n)
		}
		c.Sched.RunFor(time.Second)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	perPair := float64(after.HeapAlloc-before.HeapAlloc) / (n * n)
	t.Logf("booted N=%d retains %.1f MB, %.0f B per observer–subject pair", n, float64(after.HeapAlloc-before.HeapAlloc)/(1<<20), perPair)
	if perPair > bootBytesPerPair {
		t.Fatalf("booted cluster retains %.0f B per pair, want ≤ %d", perPair, bootBytesPerPair)
	}
}

// TestSteadyFootprint boots N = 128 Lifeguard members to a converged
// view, as the benchmark's sim-steady workload does, then runs 400
// virtual seconds with no faults. It pins what that steady phase
// allocates, per observer–subject pair, and the heap the cluster
// retains after it: filling each node's coordinate cache and carrying
// its pings and acks must not allocate in proportion to the traffic.
// What the phase allocates decides whether the heap crosses the GC goal
// the boot left it; a collection mid-phase is what kept the process's
// peak RSS high.
func TestSteadyFootprint(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("boots 128 members and runs them 400 virtual seconds")
	}
	const n = DefaultN
	var before, booted, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := NewCluster(ClusterConfig{N: n, Seed: 1, Protocol: ConfigLifeguard})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		t.Fatal(err)
	}
	for waited := 0; !c.Converged(); waited++ {
		if waited == 60 {
			t.Fatalf("%d members not converged 60 s after boot", n)
		}
		c.Sched.RunFor(time.Second)
	}
	runtime.ReadMemStats(&booted)
	c.Sched.RunFor(400 * time.Second)
	runtime.ReadMemStats(&after)
	allocated := float64(after.TotalAlloc-booted.TotalAlloc) / (n * n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	retained := float64(after.HeapAlloc-before.HeapAlloc) / (n * n)
	t.Logf("steady phase allocates %.2f MB, %.0f B per pair; cluster retains %.2f MB, %.0f B per pair",
		allocated*n*n/(1<<20), allocated, retained*n*n/(1<<20), retained)
	if allocated > steadyAllocPerPair {
		t.Errorf("steady phase allocates %.0f B per pair, want ≤ %d", allocated, steadyAllocPerPair)
	}
	if retained > steadyRetainedPerPair {
		t.Errorf("cluster retains %.0f B per pair after the steady phase, want ≤ %d", retained, steadyRetainedPerPair)
	}
}

// TestWANTelemetryFootprint runs the smoke WAN cluster through its
// convergence phase with telemetry on and with it off, and bounds the
// heap the on side retains beyond the off side, after a collection, per
// RTT sample recorded: the cost of keeping every (origin, peer) sample
// list. Two collections on each side empty the sync.Pool victim
// caches, which one would leave behind.
func TestWANTelemetryFootprint(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs the smoke WAN cluster twice and sizes its heap")
	}
	p := wanParams(RunOptions{Scale: ScaleSmoke})
	retained := func(telem bool) (bytes int64, samples int) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		c, _, err := startWANCluster(ClusterConfig{Seed: 1, Protocol: ConfigLifeguard, Telemetry: telem}, p)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		c.Sched.RunFor(p.Converge)
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		for _, ss := range c.Telem {
			samples += len(ss)
		}
		runtime.KeepAlive(c)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc), samples
	}
	off, _ := retained(false)
	on, samples := retained(true)
	if samples == 0 {
		t.Fatal("telemetry recorded no RTT samples")
	}
	perSample := float64(on-off) / float64(samples)
	t.Logf("telemetry off retains %.1f MB, on %.1f MB: %.0f B per sample over %d samples",
		float64(off)/(1<<20), float64(on)/(1<<20), perSample, samples)
	if perSample > wanTelemetryBytesPerSample {
		t.Errorf("telemetry retains %.0f B per RTT sample, want ≤ %d", perSample, wanTelemetryBytesPerSample)
	}
}
