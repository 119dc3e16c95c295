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
