package main

// This file is the benchmark's registry: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with
// the end-to-end number each one is expected to move. BENCHMARK.json at
// the repository root carries the same names, units, directions and
// bounds for the driver; spec_test.go keeps the two in step.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef describes one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`

	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Zero on
	// per-layer metrics, which are explanatory and carry no bound.
	Bound float64 `json:"bound,omitempty"`

	// Moves says which end-to-end metric, on which workload, a change
	// to this layer metric should show up in.
	Moves string `json:"moves,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloads = []workloadDef{
	{"sim-steady", "N=128 simulated cluster with no faults: ping/ack fast path only, so scheduler, simulated network, probe path and codec dominate; bypasses broadcast, suspicion and gossip fan-out"},
	{"sim-anomaly", "N=128 under the paper's Interval anomaly (C=32) then 8 hard crashes: suspicion storms, full piggyback packets, refutations and gossip fan-out dominate"},
	{"sim-large", "N=384 join storm, steady phase and 12 crashes: 384-state push-pull tables, the N^2 member table and the event log put the working set out of cache"},
	{"agent-probe", "16 real members on loopback UDP; a closed-loop generator pings member 0 at window 1 then 16: socket read, decode, Node.mu, ack encode, socket write; no TCP"},
	{"agent-join", "64 real members on loopback; closed-loop Node.Join push-pull exchanges over fresh TCP dials: large reliable messages and 64-state table encode/merge; no UDP on the measured path"},
}

// endToEnd lists the metrics every workload reports with -trace 0.
// An "op" is one executed scheduler event on sim-*, one acked probe at
// window 16 on agent-probe, and one completed join exchange on
// agent-join.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// perLayer lists the metrics every workload reports with -trace 1. A
// metric that does not apply to a workload (nettrans.* on sim-*, sim.*
// on agent-*) reads 0 there.
var perLayer = []metricDef{
	{Name: "sim.events_per_s", Unit: "1/s", Better: higher, Moves: "ops_per_s on sim-* (same quantity, from the untraced repetitions of the traced run)"},
	{Name: "sim.false_positives", Unit: "count", Better: lower, Moves: "paper Table IV; exact per seed; must be 0 on sim-steady"},
	{Name: "sim.detect_p50_s", Unit: "s", Better: lower, Moves: "paper Table V first detection, virtual time; sim-anomaly and sim-large"},
	{Name: "sim.disseminate_p50_s", Unit: "s", Better: lower, Moves: "paper Table V full dissemination, virtual time; sim-anomaly and sim-large"},
	{Name: "sim.bytes_per_member_s", Unit: "B/s", Better: lower, Moves: "paper Table VI message load, virtual time; all sim-*"},

	{Name: "sim.sched.events", Unit: "count", Better: lower, Moves: "ops_per_s on sim-steady most; exact per seed"},
	{Name: "sim.sched.self_s", Unit: "s", Better: lower, Moves: "ops_per_s on sim-steady most; nothing on agent-*"},
	{Name: "sim.sched.ns_per_event", Unit: "ns", Better: lower, Moves: "ops_per_s on sim-steady most"},
	{Name: "sim.sched.pending_max", Unit: "count", Better: lower, Moves: "ops_per_s and peak_rss_mb on sim-large"},
	{Name: "sim.sched.insert_pop_ns", Unit: "ns", Better: lower, Moves: "kernel (100k pending): ops_per_s on all sim-*"},

	{Name: "sim.net.send_calls", Unit: "count", Better: lower, Moves: "ops_per_s on all sim-*"},
	{Name: "sim.net.fanout_calls", Unit: "count", Better: lower, Moves: "ops_per_s on sim-anomaly; about 0 on sim-steady"},
	{Name: "sim.net.send_self_s", Unit: "s", Better: lower, Moves: "ops_per_s on sim-anomaly (fan-out)"},
	{Name: "sim.net.pkts_sent", Unit: "count", Better: lower, Moves: "sim.bytes_per_member_s; ops_per_s on all sim-*"},
	{Name: "sim.net.bytes_sent", Unit: "B", Better: lower, Moves: "sim.bytes_per_member_s"},
	{Name: "sim.net.pkts_delivered", Unit: "count", Better: lower, Moves: "ops_per_s on all sim-*"},
	{Name: "sim.net.drops", Unit: "count", Better: lower, Moves: "sim.false_positives on sim-anomaly (queue overflow at blocked members)"},
	{Name: "sim.net.queue_len_max", Unit: "count", Better: lower, Moves: "sim.net.drops on sim-anomaly"},
	{Name: "bufpool.copy_release_ns", Unit: "ns", Better: lower, Moves: "kernel: sim.net.send_self_s, ops_per_s on sim-anomaly"},

	{Name: "core.inbound.calls", Unit: "count", Better: lower, Moves: "ops_per_s on all workloads"},
	{Name: "core.inbound.self_s", Unit: "s", Better: lower, Moves: "ops_per_s on sim-*; ops_per_s and cpu_us_per_op on agent-probe"},
	{Name: "core.inbound.ns_per_pkt", Unit: "ns", Better: lower, Moves: "ops_per_s on sim-*; cpu_us_per_op on agent-probe"},
	{Name: "core.timers.calls", Unit: "count", Better: lower, Moves: "ops_per_s on sim-anomaly"},
	{Name: "core.timers.self_s", Unit: "s", Better: lower, Moves: "ops_per_s on sim-anomaly; about 0 share on agent-probe"},
	{Name: "core.timers.ns_per_call", Unit: "ns", Better: lower, Moves: "ops_per_s on sim-anomaly"},
	{Name: "core.api.calls", Unit: "count", Better: lower, Moves: "ops_per_s on agent-join (Node.Join calls made by the driver)"},
	{Name: "core.api.self_s", Unit: "s", Better: lower, Moves: "ops_per_s on agent-join (table snapshot and encode)"},
	{Name: "core.probes", Unit: "count", Better: lower, Moves: "explains sim.bytes_per_member_s"},
	{Name: "core.probe_failures", Unit: "count", Better: lower, Moves: "explains sim.false_positives on sim-anomaly"},
	{Name: "core.suspicions_raised", Unit: "count", Better: lower, Moves: "explains sim.false_positives; about 0 on sim-steady"},
	{Name: "core.suspicions_refuted", Unit: "count", Better: higher, Moves: "explains sim.false_positives on sim-anomaly"},
	{Name: "core.refutes", Unit: "count", Better: lower, Moves: "explains sim.bytes_per_member_s on sim-anomaly"},
	{Name: "core.fp_swim", Unit: "count", Better: lower, Moves: "SWIM baseline on the sim-anomaly script: the reference sim.false_positives is read against"},

	{Name: "broadcast.queue_drain_ns", Unit: "ns", Better: lower, Moves: "kernel: ops_per_s on sim-anomaly only; no change on sim-steady"},
	{Name: "suspicion.confirm_ns", Unit: "ns", Better: lower, Moves: "kernel: ops_per_s on sim-anomaly only; no change on sim-steady"},
	{Name: "wire.encode_ns", Unit: "ns", Better: lower, Moves: "kernel (ping + 16 alives): ops_per_s on all sim-* and agent-probe"},
	{Name: "wire.decode_ns", Unit: "ns", Better: lower, Moves: "kernel (ping + 16 alives): ops_per_s on all sim-* and agent-probe"},
	{Name: "wire.allocs_per_op", Unit: "count", Better: lower, Moves: "kernel: runtime.allocs_per_event, ops_per_s everywhere"},
	{Name: "wire.pushpull_encode_ns", Unit: "ns", Better: lower, Moves: "kernel (384 states): ops_per_s and setup_s on sim-large, ops_per_s on agent-join; not sim-steady or agent-probe"},
	{Name: "wire.pushpull_decode_ns", Unit: "ns", Better: lower, Moves: "kernel (384 states): ops_per_s and setup_s on sim-large, ops_per_s on agent-join; not sim-steady or agent-probe"},
	{Name: "coords.update_ns", Unit: "ns", Better: lower, Moves: "kernel: ops_per_s on sim-steady (one update per ack), cpu_us_per_op on agent-probe"},
	{Name: "coords.nearest_ns", Unit: "ns", Better: lower, Moves: "kernel: only with coordinate relay selection on; no change on the five workloads"},
	{Name: "telemetry.record_rtt_ns", Unit: "ns", Better: lower, Moves: "kernel: cpu_us_per_op on agent-* (members record RTTs)"},
	{Name: "metrics.calls", Unit: "count", Better: lower, Moves: "ops_per_s on sim-anomaly and sim-large"},
	{Name: "metrics.self_s", Unit: "s", Better: lower, Moves: "ops_per_s on sim-anomaly and sim-large; peak_rss_mb (event log)"},

	{Name: "runtime.cpu_s", Unit: "s", Better: lower, Moves: "cpu_us_per_op everywhere"},
	{Name: "runtime.allocs_per_event", Unit: "count", Better: lower, Moves: "ops_per_s on sim-*"},
	{Name: "runtime.alloc_bytes_per_event", Unit: "B", Better: lower, Moves: "ops_per_s and peak_rss_mb on sim-large"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: lower, Moves: "ops_per_s and cpu_us_per_op on agent-*"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower, Moves: "ops_per_s everywhere"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower, Moves: "ops_per_s everywhere; agent.probe_rtt_p99_us"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: lower, Moves: "peak_rss_mb on sim-large"},

	{Name: "nettrans.rx_pkts", Unit: "count", Better: lower, Moves: "ops_per_s on agent-*"},
	{Name: "nettrans.send_calls", Unit: "count", Better: lower, Moves: "ops_per_s on agent-*"},
	{Name: "nettrans.send_self_s", Unit: "s", Better: lower, Moves: "ops_per_s and cpu_us_per_op on agent-probe"},
	{Name: "nettrans.udp_send_ns", Unit: "ns", Better: lower, Moves: "ops_per_s on agent-probe"},
	{Name: "nettrans.reliable_sends", Unit: "count", Better: lower, Moves: "ops_per_s on agent-join only; about 0 on agent-probe"},
	{Name: "nettrans.reliable_send_ns", Unit: "ns", Better: lower, Moves: "ops_per_s on agent-join only"},

	{Name: "agent.probe_rtt_p50_us", Unit: "us", Better: lower, Moves: "ops_per_s on agent-probe (window 1 latency)"},
	{Name: "agent.probe_rtt_p99_us", Unit: "us", Better: lower, Moves: "tail of the same; highest percentile up to 99 with 10 samples beyond it"},
	{Name: "agent.join_rtt_p50_us", Unit: "us", Better: lower, Moves: "ops_per_s on agent-join (closed loop: rate = 1/latency)"},
	{Name: "agent.join_rtt_p99_us", Unit: "us", Better: lower, Moves: "tail of the same"},
	{Name: "os.udp_echo_rtt_p50_us", Unit: "us", Better: lower, Moves: "floor for agent.probe_rtt_p50_us: not ours to win"},
	{Name: "os.udp_echo_rps", Unit: "1/s", Better: higher, Moves: "ceiling for ops_per_s on agent-probe: not ours to win"},
	{Name: "os.tcp_dial_rtt_p50_us", Unit: "us", Better: lower, Moves: "floor for agent.join_rtt_p50_us (two dials per exchange): not ours to win"},
	{Name: "agent.probe_overhead_x", Unit: "x", Better: lower, Moves: "probe p50 over echo p50: the share of agent-probe latency that is ours"},

	{Name: "experiment.newcluster_s", Unit: "s", Better: lower, Moves: "setup_s on sim-*"},
	{Name: "experiment.boot_events", Unit: "count", Better: lower, Moves: "setup_s on sim-steady and sim-anomaly; ops_per_s on sim-large, which measures its boot"},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower, Moves: "traced over untraced measured wall; says how far span times can be trusted"},
	{Name: "trace.self_sum_pct", Unit: "%", Better: higher, Moves: "layer self times over traced wall on sim-* (100 = every nanosecond attributed once), over process CPU on agent-*"},
}

// allMetrics returns every registered metric, end-to-end first.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}
