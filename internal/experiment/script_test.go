package experiment

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"lifeguard/internal/bufpool"
	"lifeguard/internal/core"
	"lifeguard/internal/metrics"
	"lifeguard/internal/sim"
)

// describe renders a run's derived departures, one "name at inc kind"
// line per member in name order: at is the offset from the start of the
// run, inc "any" or the incarnation the member left at, kind "crash"
// (scored for detection) or "leave".
func describe(r *run) string {
	var lines []string
	for name, d := range r.gone {
		inc, kind := "any", "leave"
		if d.inc != math.MaxUint64 {
			inc = fmt.Sprint(d.inc)
		}
		if d.crash {
			kind = "crash"
		}
		lines = append(lines, fmt.Sprintf("%s %v %s %s", name, d.at.Sub(r.start), inc, kind))
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// TestScriptDeparturesMatchDrivers runs each of the eight scenario
// drivers at a small size and pins the departures its script derived.
// The pinned maps are the ones each driver used to state by hand, with
// two deliberate rule changes: an anomaly-set pause is scored for
// detection in every scenario (interval and stress never read
// detections), and a churn leave departs at the incarnation it held,
// as a rolling-restart leave does. The chaos, churn and rolling-restart
// casts follow those scenarios' constants: 6 victims and 3 crashes, an
// action every 500 ms, N/8 restarts per wave.
func TestScriptDeparturesMatchDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("seven scenario runs")
	}
	cc := func(n int) ClusterConfig { return ClusterConfig{N: n, Seed: 1, Protocol: ConfigLifeguard} }
	cases := []struct {
		name string
		cc   ClusterConfig
		run  func(ClusterConfig) error
		want string
	}{
		{"threshold", cc(16), func(cc ClusterConfig) error {
			_, err := runThreshold(cc, thresholdParams{C: 3, D: 10 * time.Second})
			return err
		}, "node-001 0s any crash\nnode-004 0s any crash\nnode-007 0s any crash"},
		{"interval", cc(16), func(cc ClusterConfig) error {
			_, err := runInterval(cc, intervalParams{C: 2, D: 10 * time.Second, I: 20 * time.Second})
			return err
		}, "node-001 0s any crash\nnode-004 0s any crash"},
		{"stress", cc(16), func(cc ClusterConfig) error {
			_, err := runStress(cc, stressParams{Stressed: 2, Duration: 30 * time.Second})
			return err
		}, "node-001 0s any crash\nnode-004 0s any crash"},
		{"chaos", cc(smallChaosN), func(cc ClusterConfig) error {
			_, _, err := runChaosCell(cc, "combined", smallChaosParams())
			return err
		}, "node-018 8s any crash\nnode-021 8s any crash\nnode-026 8s any crash"},
		{"churn", cc(24), func(cc ClusterConfig) error {
			_, err := runChurn(cc, 8*time.Second)
			return err
		}, strings.Join([]string{
			"node-006 4s any crash",
			"node-010 2s any crash",
			"node-011 3s 1 leave",
			"node-014 6s any crash",
			"node-017 7s 1 leave",
			"node-018 1s 1 leave",
			"node-021 0s any crash",
			"node-023 5s 1 leave",
		}, "\n")},
		{"partition", cc(16), func(cc ClusterConfig) error {
			_, err := runPartition(cc)
			return err
		}, ""},
		{"rolling-restart", cc(smallRestartN), func(cc ClusterConfig) error {
			_, _, err := runRestartCell(cc, smallRestartWaves)
			return err
		}, strings.Join([]string{
			"node-003 21.333333333s 1 leave",
			"node-005 20.666666666s 1 leave",
			"node-008 666.666666ms 1 leave",
			"node-019 2s 1 leave",
			"node-021 1.333333333s 1 leave",
			"node-022 0s 1 leave",
			"node-024 22s 1 leave",
			"node-029 20s 1 leave",
		}, "\n")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var runs []*run
			tc.cc.played = func(r *run) { runs = append(runs, r) }
			if err := tc.run(tc.cc); err != nil {
				t.Fatal(err)
			}
			if len(runs) != 1 {
				t.Fatalf("driver played %d scripts, want 1", len(runs))
			}
			if got := describe(runs[0]); got != tc.want {
				t.Errorf("derived departures:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// mixedScript exercises every entry kind on a 16-member cluster.
func mixedScript() script {
	var far []string
	for i := 6; i < 16; i++ {
		far = append(far, NodeName(i))
	}
	s := script{}.anomaly([]string{NodeName(1), NodeName(2)}, 0, 4*time.Second)
	return append(s,
		entry{at: time.Second, op: opDegrade, node: NodeName(3), delay: sim.DelayDist{Base: 200 * time.Millisecond, Jitter: 400 * time.Millisecond}},
		entry{at: 9 * time.Second, op: opRestore, node: NodeName(3)},
		entry{at: 2 * time.Second, op: opPause, node: NodeName(4), mode: sim.PauseDrop},
		entry{at: 8 * time.Second, op: opResume, node: NodeName(4)},
		entry{at: 3 * time.Second, op: opImpair, node: NodeName(5), peers: far, link: sim.LinkFault{Loss: 0.5, Duplicate: 0.3, Reorder: 0.3}},
		entry{at: 12 * time.Second, op: opClear, node: NodeName(5), peers: far},
		entry{at: 3 * time.Second, op: opCut, node: NodeName(8), peers: []string{NodeName(9), NodeName(10)}, oneWay: true},
		entry{at: 10 * time.Second, op: opHeal, node: NodeName(8), peers: []string{NodeName(9), NodeName(10)}, oneWay: true},
		entry{at: 5 * time.Second, op: opCrash, node: NodeName(11)},
		entry{at: 6 * time.Second, op: opLeave, node: NodeName(12)},
		entry{at: 7 * time.Second, op: opStop, node: NodeName(12)},
		entry{at: 16 * time.Second, op: opJoin, node: NodeName(12)},
		entry{at: 6 * time.Second, op: opStop, node: NodeName(13)},
		entry{at: 9 * time.Second, op: opJoin, node: "fresh-000"},
	)
}

// TestScriptDeterministic plays one script mixing every entry kind twice
// at the same seed: the scored verdict, the derived departures, the
// traffic and the event-log digest must be identical.
func TestScriptDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("double scripted run")
	}
	var faulted []string
	play := func() (string, deaths, sim.Stats, string) {
		c, err := NewCluster(ClusterConfig{N: 16, Seed: 5, Protocol: ConfigLifeguard})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		if err := c.Start(Quiesce); err != nil {
			t.Fatal(err)
		}
		r := c.play(mixedScript())
		if err := r.runTo(40 * time.Second); err != nil {
			t.Fatal(err)
		}
		events := c.Events.Events()
		faulted = faulted[:0]
		for name := range r.faulted {
			faulted = append(faulted, name)
		}
		slices.Sort(faulted)
		return describe(r), scoreDeaths(events, r.start, r.gone, r.faulted), c.Net.TotalStats(), eventDigest(events)
	}
	gone1, score1, stats1, digest1 := play()
	gone2, score2, stats2, digest2 := play()
	if gone1 != gone2 || !reflect.DeepEqual(score1, score2) || stats1 != stats2 || digest1 != digest2 {
		t.Errorf("same script, same seed, different runs:\n%s\n%+v %+v %s\nvs\n%s\n%+v %+v %s",
			gone1, score1, stats1, digest1, gone2, score2, stats2, digest2)
	}
	want := strings.Join([]string{
		"node-001 0s any crash",
		"node-002 0s any crash",
		"node-011 5s any crash",
		"node-012 6s 1 leave",
		"node-013 6s any crash",
	}, "\n")
	if gone1 != want {
		t.Errorf("derived departures:\n%s\nwant:\n%s", gone1, want)
	}
	// Link entries fault their node, not its peers; joins fault no one.
	if got, want := strings.Join(faulted, ","), "node-001,node-002,node-003,node-004,node-005,node-008,node-011,node-012,node-013"; got != want {
		t.Errorf("faulted = %s, want %s", got, want)
	}
	if score1.TP == 0 || stats1.Duplicated == 0 || stats1.DropsFault == 0 {
		t.Errorf("script did not bite: tp %d, duplicated %d, fault drops %d", score1.TP, stats1.Duplicated, stats1.DropsFault)
	}
}

// TestScriptShutdownLeavesNoTimers plays the mixed script — anomaly
// pauses, a degrade, a crash, a leave, stops, and joins under a new and
// a reused name — then shuts the cluster down: once the packets still
// in flight are delivered, the scheduler holds nothing. Every timer a
// member armed, on every path the script took it down, is stopped by
// Shutdown or removeNode.
func TestScriptShutdownLeavesNoTimers(t *testing.T) {
	if testing.Short() {
		t.Skip("scripted run")
	}
	c, err := NewCluster(ClusterConfig{N: 16, Seed: 5, Protocol: ConfigLifeguard})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(Quiesce); err != nil {
		t.Fatal(err)
	}
	r := c.play(mixedScript())
	if err := r.runTo(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Sched.Len() == 0 {
		t.Fatal("no events pending before shutdown")
	}
	c.Shutdown()
	// Long enough to deliver what is on the wire, shorter than the
	// gossip tick: a tick timer left running is still pending.
	c.Sched.RunFor(100 * time.Millisecond)
	if n := c.Sched.Len(); n != 0 {
		t.Errorf("%d events pending after shutdown and the in-flight drain, want 0", n)
	}
}

// TestSinkCountsEachEventOnce plays the mixed script and holds the
// cluster's counter sink to its event log: suspicions_raised,
// suspicions_refuted, events_dead and events_join each equal the number
// of EventSuspect, EventAlive, EventDead and EventJoin entries, from
// every member, the stopped and rejoined ones included. A transition
// counted at a second site, or not at its event, shows as a mismatch.
func TestSinkCountsEachEventOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("scripted run")
	}
	c, err := NewCluster(ClusterConfig{N: 16, Seed: 5, Protocol: ConfigLifeguard})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		t.Fatal(err)
	}
	if err := c.play(mixedScript()).runTo(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	logged := map[metrics.EventType]int64{}
	for _, e := range c.Events.Events() {
		logged[e.Type]++
	}
	for _, pair := range []struct {
		counter string
		event   metrics.EventType
	}{
		{metrics.CounterSuspicionsRaised, metrics.EventSuspect},
		{metrics.CounterSuspicionsRefuted, metrics.EventAlive},
		{"events_dead", metrics.EventDead},
		{"events_join", metrics.EventJoin},
	} {
		got, want := c.Sink.Get(pair.counter), logged[pair.event]
		if want == 0 {
			t.Errorf("the script raised no %s event", pair.event)
		}
		if got != want {
			t.Errorf("%s = %d, want %d (the %s events logged)", pair.counter, got, want, pair.event)
		}
	}
}

// TestScriptReturnsEveryBuffer plays the mixed script, shuts the
// cluster down and removes every member: once the packets still in
// flight are delivered, every pooled packet buffer the run handed out
// is back. The run is cut once mid-anomaly, while two members are
// paused holding an inbound backlog and their own sends, and once after
// the script has played out.
func TestScriptReturnsEveryBuffer(t *testing.T) {
	if testing.Short() {
		t.Skip("scripted run")
	}
	for _, cut := range []time.Duration{3 * time.Second, 40 * time.Second} {
		before := bufpool.Outstanding()
		c, err := NewCluster(ClusterConfig{N: 16, Seed: 5, Protocol: ConfigLifeguard})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(Quiesce); err != nil {
			t.Fatal(err)
		}
		r := c.play(mixedScript())
		if err := r.runTo(cut); err != nil {
			t.Fatal(err)
		}
		if cut < 4*time.Second && c.Net.QueueLen(NodeName(1)) == 0 {
			t.Fatalf("cut at %v: the paused member holds no backlog", cut)
		}
		c.Shutdown()
		for _, node := range slices.Clone(c.Nodes) {
			c.removeNode(node.Name())
		}
		c.Sched.RunFor(100 * time.Millisecond)
		if held := bufpool.Outstanding() - before; held != 0 {
			t.Errorf("cut at %v: %d packet buffers not returned after shutdown, removal and the in-flight drain, want 0", cut, held)
		}
	}
}

// TestScriptTieRule pins when entries apply: after every event at or
// before their instant — events scheduled at that instant by events at
// that instant included — and, at one instant, together in script
// order, whatever order the script lists instants in, before any event
// they cause runs (the paper's lock-step anomaly).
func TestScriptTieRule(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 2, Seed: 1, Protocol: ConfigSWIM})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	for _, name := range []string{"a", "b"} {
		if _, err := c.Net.Attach(name, func(string, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	look := func(label string) func() {
		return func() { seen = append(seen, fmt.Sprintf("%s a:%v b:%v", label, c.Net.Gated("a"), c.Net.Gated("b"))) }
	}
	c.Sched.Schedule(10*time.Millisecond, func() {
		look("event@10ms")()
		c.Sched.Schedule(0, look("chained@10ms"))
	})
	c.Sched.Schedule(10*time.Millisecond+1, look("event@10ms+1ns"))
	c.Sched.Schedule(20*time.Millisecond+1, look("event@20ms+1ns"))
	c.Sched.Schedule(20*time.Millisecond, look("event@20ms"))
	c.Net.OnWake("a", func() { c.Sched.Schedule(0, look("woken@30ms")) })
	// In script order, a ends the 10 ms instant paused and b the 20 ms
	// instant running; in the reverse order, the other way round. At
	// 30 ms, a's wake runs only once b is paused too.
	r := c.play(script{
		{at: 20 * time.Millisecond, op: opPause, node: "b"},
		{at: 10 * time.Millisecond, op: opResume, node: "a"},
		{at: 10 * time.Millisecond, op: opPause, node: "a"},
		{at: 30 * time.Millisecond, op: opResume, node: "a"},
		{at: 20 * time.Millisecond, op: opResume, node: "b"},
		{at: 30 * time.Millisecond, op: opPause, node: "b"},
	})
	if err := r.runTo(time.Second); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"event@10ms a:false b:false",
		"chained@10ms a:false b:false",
		"event@10ms+1ns a:true b:false",
		"event@20ms a:true b:false",
		"event@20ms+1ns a:true b:false",
		"woken@30ms a:false b:true",
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("observations:\n%s\nwant:\n%s", strings.Join(seen, "\n"), strings.Join(want, "\n"))
	}
}

// TestScriptEntriesDriveCluster checks each entry kind end to end: it
// takes effect at its instant, and its counterpart undoes it.
func TestScriptEntriesDriveCluster(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 4, Seed: 1, Protocol: ConfigSWIM})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		t.Fatal(err)
	}
	// Two raw ports on the cluster's network carry the link probes.
	got := map[string]int{}
	ports := map[string]*sim.Port{}
	for _, name := range []string{"a", "b"} {
		name := name
		p, err := c.Net.Attach(name, func(string, []byte) { got[name]++ })
		if err != nil {
			t.Fatal(err)
		}
		ports[name] = p
	}
	// delivered sends one packet each way between a and b, lets them
	// land, and reports which arrived.
	delivered := func() string {
		got["a"], got["b"] = 0, 0
		ports["a"].SendPacket("b", []byte{1}, false)
		ports["b"].SendPacket("a", []byte{1}, false)
		c.Sched.RunFor(50 * time.Millisecond)
		return fmt.Sprintf("a->b:%d b->a:%d", got["b"], got["a"])
	}
	ms := time.Millisecond
	member, left := NodeName(2), NodeName(3)
	r := c.play(script{
		{at: 100 * ms, op: opDegrade, node: "a", delay: sim.DelayDist{Base: ms}},
		{at: 200 * ms, op: opRestore, node: "a"},
		{at: 300 * ms, op: opPause, node: "b"},
		{at: 400 * ms, op: opResume, node: "b"},
		{at: 500 * ms, op: opImpair, node: "a", peers: []string{"b"}, link: sim.LinkFault{Loss: 1}},
		{at: 600 * ms, op: opClear, node: "a", peers: []string{"b"}},
		{at: 700 * ms, op: opCut, node: "a", peers: []string{"b"}, oneWay: true},
		{at: 800 * ms, op: opHeal, node: "a", peers: []string{"b"}, oneWay: true},
		{at: 900 * ms, op: opCut, node: "a", peers: []string{"b"}},
		{at: 1000 * ms, op: opHeal, node: "a", peers: []string{"b"}},
		{at: 1100 * ms, op: opCrash, node: "b"},
		{at: 1200 * ms, op: opLeave, node: left},
		{at: 1300 * ms, op: opStop, node: member},
		{at: 1400 * ms, op: opJoin, node: "fresh-000"},
	})
	checks := []struct {
		at   time.Duration
		test func() bool
		desc string
	}{
		{100 * ms, func() bool { return c.Net.Degraded("a") }, "a degraded"},
		{200 * ms, func() bool { return !c.Net.Degraded("a") }, "a restored"},
		{300 * ms, func() bool { return c.Net.Gated("b") }, "b paused"},
		{400 * ms, func() bool { return !c.Net.Gated("b") }, "b resumed"},
		{500 * ms, func() bool { return delivered() == "a->b:0 b->a:0" }, "a<->b impaired both ways"},
		{600 * ms, func() bool { return delivered() == "a->b:1 b->a:1" }, "a<->b cleared"},
		{700 * ms, func() bool { return delivered() == "a->b:0 b->a:1" }, "a->b cut one way"},
		{800 * ms, func() bool { return delivered() == "a->b:1 b->a:1" }, "a->b healed"},
		{900 * ms, func() bool { return delivered() == "a->b:0 b->a:0" }, "a<->b cut both ways"},
		{1000 * ms, func() bool { return delivered() == "a->b:1 b->a:1" }, "a<->b healed"},
		{1100 * ms, func() bool { return c.Net.Crashed("b") }, "b crashed"},
		{1200 * ms, func() bool { m, _ := c.names[left].Member(left); return m.State == core.StateLeft }, "leave announced"},
		{1300 * ms, func() bool { _, ok := c.names[member]; return !ok && len(c.Nodes) == 3 }, "member stopped and forgotten"},
		{1400 * ms, func() bool { _, ok := c.names["fresh-000"]; return ok && len(c.Nodes) == 4 }, "fresh member joined"},
	}
	for _, chk := range checks {
		// Run just past the entry's instant, where it has applied.
		if err := r.runTo(chk.at + 1); err != nil {
			t.Fatal(err)
		}
		if !chk.test() {
			t.Errorf("%s at %v: condition does not hold", chk.desc, chk.at)
		}
	}
	c.Sched.RunFor(5 * time.Second)
	if m, ok := c.names[NodeName(0)].Member("fresh-000"); !ok || m.State != core.StateAlive {
		t.Errorf("member 0 does not see the joiner alive: %+v", m)
	}
	var leftSeen bool
	for _, ev := range c.Events.Events() {
		leftSeen = leftSeen || (ev.Subject == left && ev.Observer != left && ev.Type == metrics.EventDead)
	}
	if !leftSeen {
		t.Error("no member learned of the leave")
	}
}
