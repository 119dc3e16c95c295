package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"lifeguard/internal/core"
	"lifeguard/internal/experiment"
	"lifeguard/internal/metrics"
	"lifeguard/internal/sim"
)

// simCluster is what the simulator workloads drive: the engine handles
// and a start function. The untraced repetitions get it from
// experiment.NewCluster; traced ones from newTracedCluster, the same
// wiring with the tracer's wrappers on every seam (parity_test.go pins
// that the two produce identical runs).
type simCluster struct {
	sched  *sim.Scheduler
	net    *sim.Network
	nodes  []*core.Node
	events *metrics.EventLog
	sink   *metrics.MemSink
	start  func(quiesce time.Duration) error
}

func (c *simCluster) shutdown() {
	for _, n := range c.nodes {
		n.Shutdown()
	}
}

// converged reports whether every member sees every member alive.
func (c *simCluster) converged() bool {
	for _, n := range c.nodes {
		if n.NumAlive() != len(c.nodes) {
			return false
		}
	}
	return true
}

func newPlainCluster(cc experiment.ClusterConfig) (*simCluster, error) {
	c, err := experiment.NewCluster(cc)
	if err != nil {
		return nil, err
	}
	return &simCluster{sched: c.Sched, net: c.Net, nodes: c.Nodes, events: c.Events, sink: c.Sink, start: c.Start}, nil
}

// eventRecorder logs one member's membership events, as the experiment
// harness does.
type eventRecorder struct {
	core.NopEvents
	log      *metrics.EventLog
	clock    *sim.Clock
	observer string
}

func (r eventRecorder) record(t metrics.EventType, m core.Member) {
	r.log.Append(metrics.Event{Time: r.clock.Now(), Observer: r.observer, Subject: m.Name, Type: t, Incarnation: m.Incarnation})
}

func (r eventRecorder) NotifyJoin(m core.Member)    { r.record(metrics.EventJoin, m) }
func (r eventRecorder) NotifySuspect(m core.Member) { r.record(metrics.EventSuspect, m) }
func (r eventRecorder) NotifyAlive(m core.Member)   { r.record(metrics.EventAlive, m) }
func (r eventRecorder) NotifyDead(m core.Member)    { r.record(metrics.EventDead, m) }

// newTracedCluster wires a cluster exactly as experiment.NewCluster
// does (same construction order, RNG seeds, clocks, gates and join
// stagger) with st's spans around the packet handler, the transport,
// the clock, the event delegate and the counter sink. st may be nil,
// which leaves every seam bare; the parity test uses that to separate
// "the wiring differs" from "the wrappers perturb".
func newTracedCluster(cc experiment.ClusterConfig, st *spanStack) (*simCluster, error) {
	sched := sim.NewScheduler(time.Unix(0, 0))
	network := sim.NewNetwork(sched, sim.Options{Seed: cc.Seed})
	c := &simCluster{sched: sched, net: network, events: metrics.NewEventLog(), sink: metrics.NewMemSink()}

	for i := 0; i < cc.N; i++ {
		name := experiment.NodeName(i)
		cfg := core.DefaultConfig(name)
		cfg.LHAProbe = cc.Protocol.LHAProbe
		cfg.LHASuspicion = cc.Protocol.LHASuspicion
		cfg.BuddySystem = cc.Protocol.BuddySystem
		cfg.SuspicionAlpha = cc.Protocol.Alpha
		cfg.SuspicionBeta = max(cc.Protocol.Beta, 1)
		cfg.Clock = network.NodeClock(name)
		cfg.RNG = rand.New(rand.NewSource(cc.Seed*7919 + int64(i) + 1))
		cfg.Events = eventRecorder{log: c.events, clock: network.Clock(), observer: name}
		cfg.Metrics = c.sink
		cfg.Blocked = func() bool { return network.Gated(name) }

		var node *core.Node
		handler := func(from string, payload []byte) { node.HandlePacket(from, payload) }
		if st != nil {
			handler = func(from string, payload []byte) {
				st.pendingMax = max(st.pendingMax, sched.Len())
				// The packet being handled has already left the queue.
				st.queueLenMax = max(st.queueLenMax, network.QueueLen(name)+1)
				st.beginRoot(layerInbound)
				node.HandlePacket(from, payload)
				st.endRoot()
			}
		}
		port, err := network.Attach(name, handler)
		if err != nil {
			return nil, fmt.Errorf("attach %s: %w", name, err)
		}
		cfg.Transport = port
		wake := func() { node.Wake() }
		if st != nil {
			cfg.Transport = &tracedFanoutTransport{tracedTransport{port, st}, port}
			cfg.Clock = &tracedClock{cfg.Clock, st}
			cfg.Events = &tracedEvents{cfg.Events, st}
			cfg.Metrics = &tracedSink{c.sink, st}
			wake = func() {
				st.beginRoot(layerTimers)
				node.Wake()
				st.endRoot()
			}
		}
		node, err = core.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("new node %s: %w", name, err)
		}
		network.OnWake(name, wake)
		c.nodes = append(c.nodes, node)
	}

	c.start = func(quiesce time.Duration) error {
		started := sched.Now()
		for _, n := range c.nodes {
			if err := n.Start(); err != nil {
				return fmt.Errorf("start %s: %w", n.Name(), err)
			}
		}
		seed := c.nodes[0].Addr()
		// experiment.Cluster.Start's join stagger: 5 ms per member,
		// capped at 10 s, spread evenly over the joiners.
		window := min(time.Duration(cc.N)*5*time.Millisecond, 10*time.Second)
		for i, n := range c.nodes[1:] {
			node := n
			offset := window * time.Duration(i) / time.Duration(cc.N-1)
			if offset <= 0 {
				if err := node.Join(seed); err != nil {
					return fmt.Errorf("join %s: %w", node.Name(), err)
				}
				continue
			}
			sched.ScheduleAt(started.Add(offset), func() { _ = node.Join(seed) })
		}
		sched.RunFor(quiesce)
		return nil
	}
	return c, nil
}

// pickMembers chooses count distinct member names uniformly from
// members 1..n-1 (never the join seed), skipping those in exclude.
func pickMembers(n, count int, seed int64, exclude []string) []string {
	rng := rand.New(rand.NewSource(seed))
	var names []string
	for _, i := range rng.Perm(n - 1) {
		name := experiment.NodeName(i + 1)
		if slices.Contains(exclude, name) {
			continue
		}
		names = append(names, name)
		if len(names) == count {
			break
		}
	}
	return names
}

// simScript is one simulator workload: the cluster to build and the
// fault script to run on it once booted.
type simScript struct {
	n       int
	quiesce time.Duration

	// measureBoot puts the boot (join storm and quiesce) inside the
	// measured phase, leaving only construction as set-up.
	measureBoot bool

	// swimRef asks the traced run for one more run of the script under
	// the SWIM configuration, the reference the false-positive count is
	// read against.
	swimRef bool

	// run drives the measured phase and returns the members it made
	// anomalous and the members it crashed, with the crash instant.
	run func(c *simCluster, seed int64) (anomalous, crashed []string, crashAt time.Time)
}

// The paper's Interval experiment point the anomaly workload cycles
// (§V-D2): 32 members blocked for 32.768 s, released for 64 ms.
const (
	anomalyC = 32
	anomalyD = 32768 * time.Millisecond
	anomalyI = 64 * time.Millisecond
)

var simScripts = map[string]simScript{
	"sim-steady": {
		n: experiment.DefaultN, quiesce: experiment.Quiesce,
		run: func(c *simCluster, _ int64) ([]string, []string, time.Time) {
			c.sched.RunFor(400 * time.Second)
			return nil, nil, time.Time{}
		},
	},
	"sim-anomaly": {
		n: experiment.DefaultN, quiesce: experiment.Quiesce, swimRef: true,
		run: func(c *simCluster, seed int64) ([]string, []string, time.Time) {
			anomalous := pickMembers(len(c.nodes), anomalyC, seed+1, nil)
			begin := c.sched.Now()
			for c.sched.Now().Sub(begin) < 120*time.Second {
				for _, name := range anomalous {
					c.net.SetGated(name, true)
				}
				c.sched.RunFor(anomalyD)
				for _, name := range anomalous {
					c.net.SetGated(name, false)
				}
				c.sched.RunFor(anomalyI)
			}
			// Heal before crashing, so that detection latency is read
			// on a cluster whose views have re-converged.
			c.sched.RunFor(30 * time.Second)
			crashed := pickMembers(len(c.nodes), 8, seed+2, anomalous)
			crashAt := c.sched.Now()
			for _, name := range crashed {
				c.net.Crash(name)
			}
			c.sched.RunFor(60 * time.Second)
			return anomalous, crashed, crashAt
		},
	},
	"sim-large": {
		n: 384, quiesce: experiment.Quiesce + 384*5*time.Millisecond, measureBoot: true,
		run: func(c *simCluster, seed int64) ([]string, []string, time.Time) {
			c.sched.RunFor(15 * time.Second)
			crashed := pickMembers(len(c.nodes), 12, seed+2, nil)
			crashAt := c.sched.Now()
			for _, name := range crashed {
				c.net.Crash(name)
			}
			c.sched.RunFor(40 * time.Second)
			return nil, crashed, crashAt
		},
	},
}

// maxExtraQuiesce bounds, in virtual seconds, how long past its quiesce
// period a cluster may take to converge: two push-pull intervals.
const maxExtraQuiesce = 60

// simWorkload adapts a script to the workload interface.
type simWorkload struct {
	name   string
	script simScript
	proto  experiment.ProtocolConfig
}

func (w simWorkload) rep(seed int64, tr *tracer) (repResult, error) {
	var res repResult
	cc := experiment.ClusterConfig{N: w.script.n, Seed: seed, Protocol: w.proto}

	setupStart := time.Now()
	var c *simCluster
	var err error
	if tr != nil {
		c, err = newTracedCluster(cc, tr.newStack("cluster"))
	} else {
		c, err = newPlainCluster(cc)
	}
	if err != nil {
		return res, err
	}
	defer c.shutdown()
	built := time.Since(setupStart)

	// The measured phase opens before the boot when the script measures
	// it, after it otherwise.
	var m *measure
	open := func() {
		res.setupS = time.Since(setupStart).Seconds()
		if tr != nil {
			tr.mark()
		}
		m = startMeasure()
	}
	measuredFrom := uint64(0)
	if w.script.measureBoot {
		open()
	}
	if err := c.start(w.script.quiesce); err != nil {
		return res, err
	}
	// On a few seeds a joiner misses an alive update in the join storm
	// and only learns it from its first push-pull round, half a minute
	// in. Boot means converged, so run those on.
	for waited := 0; !c.converged(); waited++ {
		if waited == maxExtraQuiesce {
			return res, fmt.Errorf("%s: cluster of %d not converged %ds after its quiesce period", w.name, w.script.n, maxExtraQuiesce)
		}
		c.sched.RunFor(time.Second)
	}
	bootEvents := c.sched.Executed()
	if !w.script.measureBoot {
		open()
		measuredFrom = bootEvents
	}

	// The script; behaviour is scored from here whatever is timed.
	virtStart := c.sched.Now()
	netBefore := c.net.TotalStats()
	sinkBefore := c.sink.Snapshot()
	anomalous, crashed, crashAt := w.script.run(c, seed)
	m.stop(&res)
	events := c.sched.Executed() - measuredFrom
	virtS := c.sched.Now().Sub(virtStart).Seconds()
	res.ops = int64(events)

	// Scoring, outside the timed region.
	netAfter := c.net.TotalStats()
	sinkAfter := c.sink.Snapshot()
	counter := func(name string) float64 { return float64(sinkAfter[name] - sinkBefore[name]) }
	log := c.events.Events()
	fp := falsePositives(log, virtStart, anomalous, crashed)
	detect, dissem, missed := crashLatencies(log, crashed, len(c.nodes), crashAt)

	if len(crashed) > 0 {
		// One op per (crashed member, survivor): the survivor must
		// declare it dead before the script ends.
		res.attempted = int64(len(crashed) * (len(c.nodes) - len(crashed)))
		res.failed = int64(missed)
	} else {
		// Fault-free: every probe round must be acked.
		res.attempted = int64(counter(metrics.CounterProbes))
		res.failed = int64(counter(metrics.CounterProbeFailures))
		if fp != 0 {
			return res, fmt.Errorf("%s: %d members declared dead in a fault-free run", w.name, fp)
		}
	}

	drops := func(s sim.Stats) int64 { return s.DropsLoss + s.DropsOverflow + s.DropsFault }
	bytesSent := float64(netAfter.BytesSent - netBefore.BytesSent)
	res.exact = map[string]float64{
		"sim.false_positives":     float64(fp),
		"sim.detect_p50_s":        detect,
		"sim.disseminate_p50_s":   dissem,
		"sim.bytes_per_member_s":  bytesSent / float64(len(c.nodes)) / virtS,
		"sim.sched.events":        float64(events),
		"sim.net.pkts_sent":       float64(netAfter.MsgsSent - netBefore.MsgsSent),
		"sim.net.bytes_sent":      bytesSent,
		"sim.net.pkts_delivered":  float64(netAfter.MsgsDelivered - netBefore.MsgsDelivered),
		"sim.net.drops":           float64(drops(netAfter) - drops(netBefore)),
		"core.probes":             counter(metrics.CounterProbes),
		"core.probe_failures":     counter(metrics.CounterProbeFailures),
		"core.suspicions_raised":  counter(metrics.CounterSuspicionsRaised),
		"core.suspicions_refuted": counter(metrics.CounterSuspicionsRefuted),
		"core.refutes":            counter(metrics.CounterRefutes),
		"experiment.boot_events":  float64(bootEvents),
	}
	// Taken before the traced repetition adds its span counts, which its
	// untraced twin does not have.
	res.fingerprint = fmt.Sprintf("%v net=%+v log=%d", res.exact, netAfter, len(log))
	res.vals = map[string]float64{"experiment.newcluster_s": built.Seconds()}
	if tr == nil {
		res.vals["sim.events_per_s"] = float64(events) / res.measuredS
		res.vals["runtime.allocs_per_event"] = res.mallocs / float64(events)
		res.vals["runtime.alloc_bytes_per_event"] = res.allocBytes / float64(events)
		return res, nil
	}
	// The event loop runs one root span at a time, so what the wall has
	// beyond the roots is the scheduler's and the simulated network's own
	// work: popping events, delivering and queueing packets.
	selfSum, rootTotal := layerValues(tr, true, res.vals, res.exact)
	schedSelf := res.measuredS - rootTotal.Seconds()
	res.vals["sim.sched.self_s"] = schedSelf
	res.vals["sim.sched.ns_per_event"] = schedSelf * 1e9 / float64(events)
	res.vals["trace.self_sum_pct"] = 100 * (selfSum.Seconds() + schedSelf) / res.measuredS
	return res, nil
}

// falsePositives counts dead events after start about members the
// script neither made anomalous nor crashed — the paper's false
// positive (§V-F1).
func falsePositives(log []metrics.Event, start time.Time, anomalous, crashed []string) int {
	faulty := make(map[string]bool, len(anomalous)+len(crashed))
	for _, name := range anomalous {
		faulty[name] = true
	}
	for _, name := range crashed {
		faulty[name] = true
	}
	fp := 0
	for _, ev := range log {
		if ev.Type == metrics.EventDead && !ev.Time.Before(start) && !faulty[ev.Subject] {
			fp++
		}
	}
	return fp
}

// crashLatencies returns, over the crashed members, the median virtual
// time from the crash to the first survivor's dead event and to the
// last survivor's (paper Table V), and how many (crashed, survivor)
// pairs never produced a dead event.
func crashLatencies(log []metrics.Event, crashed []string, n int, crashAt time.Time) (detectP50, dissemP50 float64, missed int) {
	if len(crashed) == 0 {
		return 0, 0, 0
	}
	isCrashed := make(map[string]bool, len(crashed))
	for _, name := range crashed {
		isCrashed[name] = true
	}
	survivors := n - len(crashed)
	// first[subject][observer] is the observer's first dead event about
	// a crashed subject after the crash.
	first := make(map[string]map[string]time.Time, len(crashed))
	for _, name := range crashed {
		first[name] = make(map[string]time.Time, survivors)
	}
	for _, ev := range log {
		if ev.Type != metrics.EventDead || ev.Time.Before(crashAt) || isCrashed[ev.Observer] {
			continue
		}
		if byObs, ok := first[ev.Subject]; ok {
			if _, seen := byObs[ev.Observer]; !seen {
				byObs[ev.Observer] = ev.Time
			}
		}
	}
	var detect, dissem []float64
	for _, name := range crashed {
		byObs := first[name]
		missed += survivors - len(byObs)
		if len(byObs) == 0 {
			continue
		}
		var earliest, latest time.Time
		for _, t := range byObs {
			if earliest.IsZero() || t.Before(earliest) {
				earliest = t
			}
			if t.After(latest) {
				latest = t
			}
		}
		detect = append(detect, earliest.Sub(crashAt).Seconds())
		if len(byObs) == survivors {
			dissem = append(dissem, latest.Sub(crashAt).Seconds())
		}
	}
	sort.Float64s(detect)
	sort.Float64s(dissem)
	return quantileSorted(detect, 0.5), quantileSorted(dissem, 0.5), missed
}
