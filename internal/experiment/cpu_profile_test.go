//go:build footprint

package experiment

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSteadyCPUProfile is the harness behind ROADMAP's per-package CPU
// table for the benchmark's sim-steady workload. It boots the
// workload's cluster — N = 128 Lifeguard members at seed 1, converged —
// then profiles 40 of its 400 s fault-free measured phases run back to
// back (the benchmark runs one per repetition, on a new cluster), and
// logs each repository package's share of the samples and the top leaf
// functions. The build tag keeps it out of the regular suite:
//
//	go test -tags footprint -run TestSteadyCPUProfile -v ./internal/experiment
//
// The bucketing rule: a sample is charged to the repository package
// nearest the leaf of its stack, so runtime frames (memmove, write
// barriers, map access) are charged to the code that called them;
// samples with no repository frame, such as background GC, are charged
// to "runtime".
func TestSteadyCPUProfile(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: DefaultN, Seed: 1, Protocol: ConfigLifeguard})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		t.Fatal(err)
	}
	for waited := 0; !c.converged(); waited++ {
		if waited == 60 {
			t.Fatalf("%d members not converged 60 s after boot", DefaultN)
		}
		c.Sched.RunFor(time.Second)
	}

	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	events := c.Sched.Executed()
	start := time.Now()
	for i := 0; i < 40; i++ {
		c.Sched.RunFor(400 * time.Second)
	}
	wall := time.Since(start)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	events = c.Sched.Executed() - events
	t.Logf("%d events in %v, %.0f events/s", events, wall.Round(time.Millisecond), float64(events)/wall.Seconds())

	traces, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		t.Fatalf("go tool pprof -traces: %v", err)
	}
	byPkg, total, err := bucketTraces(string(traces))
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]string, 0, len(byPkg))
	for p := range byPkg {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return byPkg[pkgs[i]] > byPkg[pkgs[j]] })
	var table strings.Builder
	for _, p := range pkgs {
		fmt.Fprintf(&table, "%-22s %6.1f %%  %v\n", p, 100*float64(byPkg[p])/float64(total), byPkg[p])
	}
	t.Logf("%v of samples by package:\n%s", total, table.String())

	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=15", path).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -top: %v\n%s", err, top)
	}
	t.Logf("top leaf functions:\n%s", top)
}

// bucketTraces charges each sample of `go tool pprof -traces` output to
// the repository package nearest its leaf and returns the sample time
// per package and in all.
func bucketTraces(out string) (map[string]time.Duration, time.Duration, error) {
	byPkg := map[string]time.Duration{}
	var total time.Duration
	for _, block := range strings.Split(out, "-----------+")[1:] {
		lines := strings.Split(block, "\n")[1:] // drop the separator's tail
		if len(lines) == 0 {
			continue
		}
		first := strings.Fields(lines[0]) // value, leaf, maybe "(inline)"
		if len(first) < 2 {
			continue // the closing separator
		}
		d, err := time.ParseDuration(first[0])
		if err != nil {
			return nil, 0, fmt.Errorf("sample value %q: %v", first[0], err)
		}
		pkg := "runtime"
		frames := append([]string{first[1]}, lines[1:]...)
		for _, fr := range frames {
			if fn := strings.TrimSpace(fr); strings.HasPrefix(fn, "lifeguard/") {
				pkg = packageOf(strings.TrimPrefix(fn, "lifeguard/"))
				break
			}
		}
		byPkg[pkg] += d
		total += d
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("no samples in the profile")
	}
	return byPkg, total, nil
}

// packageOf returns the package path of a function symbol such as
// internal/sim.(*Scheduler).siftDown: everything before the first dot
// after the last slash.
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
