package main

import (
	"strings"
	"testing"
	"time"

	"lifeguard/internal/experiment"
)

// smallScript is a quick N=32 script with every kind of step the real
// ones have: an anomaly, a heal, crashes and a detection window.
var smallScript = simScript{
	n: 32, quiesce: experiment.Quiesce, swimRef: true,
	run: func(c *simCluster, seed int64) ([]string, []string, time.Time) {
		anomalous := pickMembers(len(c.nodes), 8, seed+1, nil)
		for _, name := range anomalous {
			c.net.SetGated(name, true)
		}
		c.sched.RunFor(20 * time.Second)
		for _, name := range anomalous {
			c.net.SetGated(name, false)
		}
		c.sched.RunFor(15 * time.Second)
		crashed := pickMembers(len(c.nodes), 2, seed+2, anomalous)
		crashAt := c.sched.Now()
		for _, name := range crashed {
			c.net.Crash(name)
		}
		c.sched.RunFor(45 * time.Second)
		return anomalous, crashed, crashAt
	},
}

var smallSim = simWorkload{name: "sim-small", script: smallScript, proto: experiment.ConfigLifeguard}

// The benchmark's own wiring, with every seam left bare, must be the
// experiment harness's wiring: same events executed, same traffic, same
// membership events.
func TestOwnWiringMatchesExperimentCluster(t *testing.T) {
	cc := experiment.ClusterConfig{N: smallScript.n, Seed: 7, Protocol: experiment.ConfigLifeguard}
	ref, err := newPlainCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.shutdown()
	own, err := newTracedCluster(cc, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer own.shutdown()
	for _, c := range []*simCluster{ref, own} {
		if err := c.start(smallScript.quiesce); err != nil {
			t.Fatal(err)
		}
		if !c.converged() {
			t.Fatal("cluster not converged after quiesce")
		}
		smallScript.run(c, cc.Seed)
	}
	if a, b := ref.sched.Executed(), own.sched.Executed(); a != b {
		t.Errorf("events executed: experiment %d, own wiring %d", a, b)
	}
	if a, b := ref.net.TotalStats(), own.net.TotalStats(); a != b {
		t.Errorf("network stats:\n experiment %+v\n own wiring %+v", a, b)
	}
	if a, b := ref.events.Len(), own.events.Len(); a != b {
		t.Errorf("event log length: experiment %d, own wiring %d", a, b)
	}
}

// Tracing must not perturb the simulation, and a seed must determine
// the run.
func TestTracedAndRepeatedRunsAreIdentical(t *testing.T) {
	first, err := smallSim.rep(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.failed != 0 {
		t.Errorf("%d of %d detections missed", first.failed, first.attempted)
	}
	again, err := smallSim.rep(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.fingerprint != first.fingerprint {
		t.Errorf("same seed, different runs:\n %s\n %s", first.fingerprint, again.fingerprint)
	}
	traced, err := smallSim.rep(7, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if traced.fingerprint != first.fingerprint {
		t.Errorf("tracing perturbed the run:\n untraced %s\n traced   %s", first.fingerprint, traced.fingerprint)
	}
	for _, k := range []string{"sim.false_positives", "sim.detect_p50_s", "sim.disseminate_p50_s", "sim.bytes_per_member_s", "sim.sched.events", "core.suspicions_raised"} {
		if _, ok := first.exact[k]; !ok || traced.exact[k] != first.exact[k] {
			t.Errorf("%s: untraced %v, traced %v", k, first.exact[k], traced.exact[k])
		}
	}
	if pct := traced.vals["trace.self_sum_pct"]; pct < 95 || pct > 105 {
		t.Errorf("layer self times sum to %.1f%% of the traced wall, want within 5%%", pct)
	}
	other, err := smallSim.rep(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if other.fingerprint == first.fingerprint {
		t.Error("a different seed gave the same fingerprint: the seed is not reaching the run")
	}
}

// Every registered metric must have a producer on some workload, and
// every workload must report every metric of the mode it ran in.
func TestEveryMetricIsProduced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the kernels three times")
	}
	small := map[string]workload{
		"sim-small":   smallSim,
		"probe-small": probeWorkload{members: 4, latencyOps: 300, throughOps: 3000},
		"join-small":  joinWorkload{members: 1 + 2*joinPairs, perPair: 20},
	}
	produced := make(map[string]bool)
	for name, w := range small {
		for _, traced := range []bool{false, true} {
			rep, err := run(name, w, 3, 1, traced, 2, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d operations failed", name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d registered", name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s missing", name, traced, d.Name)
				}
				if m.N > 0 {
					produced[d.Name] = true
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must be positive", name, d.Name, m.Value)
				}
			}
			// The bypass predictions the registry makes.
			if traced && strings.HasPrefix(name, "probe") {
				if v := rep.Metrics["nettrans.reliable_sends"].Value; v != 0 {
					t.Errorf("agent-probe made %v reliable sends on its measured path, want 0", v)
				}
			}
		}
	}
	for _, d := range allMetrics() {
		if !produced[d.Name] {
			t.Errorf("%s is registered but no workload produces it", d.Name)
		}
	}
}
