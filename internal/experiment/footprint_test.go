package experiment

import (
	"runtime"
	"testing"
	"time"
)

// bootBytesPerPair bounds what a booted N = 384 Lifeguard cluster
// retains per observer–subject pair: 346 B measured, plus 10 %. Member
// records that carried application metadata retained 362 B; a node
// that kept its own push-pull table and an event log of pointerful
// records in a doubling array retained 529 B, and one that also kept a
// Vivaldi coordinate engine 373 B.
const bootBytesPerPair = 381

// steadyAllocPerPair bounds what sim-steady's 400 s phase allocates at
// N = 128 per observer–subject pair, and steadyRetainedPerPair what the
// cluster retains after it: 13–17 B and 444–513 B measured over six
// runs, plus a margin. A node that kept a Vivaldi coordinate engine fed
// by every ack allocated 247 B and retained 681 B; with each peer in
// two coordinate maps (a Clone per new peer, a window written back per
// sample) and one packet-buffer pool for every size, the phase
// allocated 410 B per pair (6.4 MB) and the cluster retained 757 B.
const (
	steadyAllocPerPair    = 24
	steadyRetainedPerPair = 570
)

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
// retains after it: carrying its pings and acks must not allocate in
// proportion to the traffic.
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
	for waited := 0; !c.converged(); waited++ {
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
