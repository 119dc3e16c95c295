//go:build footprint

package experiment

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// TestFootprintProfile is the harness behind docs/ARCHITECTURE.md
// §Footprint. It replays the benchmark's sim-large run on an
// experiment.Cluster — N = 384 Lifeguard members at seed 1 booted to a
// converged view, 15 s steady, the benchmark's 12 crashes (cast at the
// benchmark's crash seed, 3, draws the same set), 40 s more —
// with every allocation sampled, writes the live heap after a
// collection as a profile under the test's temporary directory, and
// logs the heap the cluster retains and the profile's holders by
// allocation site. The build tag keeps it out of the regular suite (it
// takes a few minutes):
//
//	go test -tags footprint -run TestFootprintProfile -v ./internal/experiment
func TestFootprintProfile(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	const n = 384
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := NewCluster(ClusterConfig{N: n, Seed: 1, Protocol: ConfigLifeguard})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce + bootstrapWindow(n)); err != nil {
		t.Fatal(err)
	}
	for waited := 0; !c.converged(); waited++ {
		if waited == 60 {
			t.Fatalf("%d members not converged 60 s after boot", n)
		}
		c.Sched.RunFor(time.Second)
	}
	c.Sched.RunFor(15 * time.Second)
	for _, name := range cast(n, 12, 3) {
		c.Net.Crash(name)
	}
	c.Sched.RunFor(40 * time.Second)

	// Two collections: a sync.Pool's spare items survive the first (the
	// packet buffers' and the codec's pools), and how many it holds
	// depends on when the last collection ran, not on the cluster.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	path := filepath.Join(t.TempDir(), "heap.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(c)
	retained := float64(after.HeapAlloc - before.HeapAlloc)
	t.Logf("the cluster retains %.1f MB, %.0f B per observer–subject pair", retained/(1<<20), retained/(n*n))

	top, err := exec.Command("go", "tool", "pprof", "-top", "-sample_index=inuse_space", path).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof: %v\n%s", err, top)
	}
	t.Logf("live heap by allocation site:\n%s", top)
}
