// Command lifeguard-agent runs a single Lifeguard member over real
// UDP/TCP, printing membership events as they happen. Start several on
// one machine to form a live cluster:
//
//	lifeguard-agent -name a -bind 127.0.0.1:7946
//	lifeguard-agent -name b -bind 127.0.0.1:7947 -join 127.0.0.1:7946
//	lifeguard-agent -name c -bind 127.0.0.1:7948 -join 127.0.0.1:7946
//
// Flags select the protocol variant (-swim disables all Lifeguard
// components, -disable-coords turns off the Vivaldi coordinate wire
// extension) and tuning (-alpha, -beta, -probe-interval,
// -probe-timeout). -http starts the embedded ops server: /healthz,
// /members, /coords, /telemetry (JSON), /metrics (Prometheus text) and
// /debug/pprof/ (Go runtime profiles) — see docs/OPS.md. The agent leaves gracefully on SIGINT/SIGTERM,
// waiting up to -leave-timeout for the leave broadcast to drain before
// shutting down.
//
// Startup logging contract: once ready the agent always prints, in
// order, `ops server on http://HOST:PORT` (when -http is set) and
// `listening on HOST:PORT (...)`, both before any -join attempt. The
// e2e harness (e2e/, docs/E2E.md) and the CI smoke step discover the
// ephemeral bound addresses by parsing exactly these lines — keep the
// formats stable.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"lifeguard"
	"lifeguard/internal/metrics"
	"lifeguard/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lifeguard-agent:", err)
		os.Exit(1)
	}
}

// printer logs membership events through a single shared log.Logger,
// which serializes writes — event callbacks, the ops server and the
// main loop all print concurrently.
type printer struct {
	name string
	lg   *log.Logger
}

func (p printer) logf(format string, args ...any) {
	p.lg.Printf("[%s] %s", p.name, fmt.Sprintf(format, args...))
}

func (p printer) NotifyJoin(m lifeguard.Member) {
	p.logf("JOIN    %s (%s) inc=%d", m.Name, m.Addr, m.Incarnation)
}

func (p printer) NotifySuspect(m lifeguard.Member) {
	p.logf("SUSPECT %s inc=%d", m.Name, m.Incarnation)
}

func (p printer) NotifyAlive(m lifeguard.Member) {
	p.logf("REFUTED %s inc=%d", m.Name, m.Incarnation)
}

func (p printer) NotifyDead(m lifeguard.Member) {
	p.logf("DEAD    %s inc=%d", m.Name, m.Incarnation)
}

func (p printer) NotifyUpdate(m lifeguard.Member) {
	p.logf("UPDATE  %s inc=%d meta=%dB", m.Name, m.Incarnation, len(m.Meta))
}

// agentOptions is the parsed, validated flag set for one agent run.
type agentOptions struct {
	name          string
	bind          string
	join          string
	swim          bool
	disableCoords bool
	alpha         float64
	beta          float64
	probeInterval time.Duration
	probeTimeout  time.Duration
	printMembers  time.Duration
	httpAddr      string
	leaveTimeout  time.Duration
}

// parseFlags parses args into an agentOptions, rejecting values that
// could never produce a runnable node (negative probe timings). Zero
// probe-interval/probe-timeout mean "keep the protocol default"; the
// cross-field rules (timeout ≤ interval, both positive) stay with the
// core config validation so the agent and library can never disagree.
func parseFlags(args []string) (*agentOptions, error) {
	fs := flag.NewFlagSet("lifeguard-agent", flag.ContinueOnError)
	o := &agentOptions{}
	fs.StringVar(&o.name, "name", "", "member name (default: bind address)")
	fs.StringVar(&o.bind, "bind", "127.0.0.1:7946", "bind address host:port (port 0 = auto)")
	fs.StringVar(&o.join, "join", "", "address of any existing member")
	fs.BoolVar(&o.swim, "swim", false, "disable all Lifeguard components (plain SWIM)")
	fs.BoolVar(&o.disableCoords, "disable-coords", false, "disable the Vivaldi coordinate wire extension (pre-coordinate wire format)")
	fs.Float64Var(&o.alpha, "alpha", 5, "suspicion timeout α")
	fs.Float64Var(&o.beta, "beta", 6, "suspicion timeout β")
	fs.DurationVar(&o.probeInterval, "probe-interval", 0, "protocol period between liveness probes (0 = protocol default)")
	fs.DurationVar(&o.probeTimeout, "probe-timeout", 0, "direct probe ack timeout (0 = protocol default)")
	fs.DurationVar(&o.printMembers, "print-members", 10*time.Second, "interval for membership summaries (0 = off)")
	fs.StringVar(&o.httpAddr, "http", "", "ops HTTP listen address host:port (port 0 = auto; empty = disabled)")
	fs.DurationVar(&o.leaveTimeout, "leave-timeout", 5*time.Second, "max wait for the leave broadcast to drain on shutdown")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected positional arguments: %q", fs.Args())
	}
	if o.probeInterval < 0 {
		return nil, fmt.Errorf("-probe-interval must not be negative (got %v)", o.probeInterval)
	}
	if o.probeTimeout < 0 {
		return nil, fmt.Errorf("-probe-timeout must not be negative (got %v)", o.probeTimeout)
	}
	return o, nil
}

// config builds the node configuration for the validated options,
// given the transport the agent has already bound.
func (o *agentOptions) config(tr *lifeguard.UDPTransport) *lifeguard.Config {
	name := o.name
	if name == "" {
		name = tr.LocalAddr()
	}
	var cfg *lifeguard.Config
	if o.swim {
		cfg = lifeguard.SWIMConfig(name)
	} else {
		cfg = lifeguard.DefaultConfig(name)
	}
	cfg.SuspicionAlpha = o.alpha
	cfg.SuspicionBeta = o.beta
	cfg.DisableCoordinates = o.disableCoords
	if o.probeInterval != 0 {
		cfg.ProbeInterval = o.probeInterval
	}
	if o.probeTimeout != 0 {
		cfg.ProbeTimeout = o.probeTimeout
	}
	cfg.Addr = tr.LocalAddr()
	cfg.Transport = tr
	return cfg
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}

	tr, err := lifeguard.NewUDPTransport(o.bind)
	if err != nil {
		return err
	}
	defer tr.Close()

	cfg := o.config(tr)
	p := printer{name: cfg.Name, lg: log.New(os.Stdout, "", log.Ltime|log.Lmicroseconds)}
	cfg.Events = p

	sink := metrics.NewMemSink()
	cfg.Metrics = sink
	var rec *lifeguard.NodeTelemetry
	if o.httpAddr != "" {
		rec, err = lifeguard.NewNodeTelemetry(telemetry.NodeConfig{})
		if err != nil {
			return err
		}
		cfg.Telemetry = rec
	}

	node, err := lifeguard.NewNode(cfg)
	if err != nil {
		return err
	}
	tr.Run(node.HandlePacket)
	if err := node.Start(); err != nil {
		return err
	}
	defer node.Shutdown()

	var ops *opsServer
	if o.httpAddr != "" {
		started := time.Now()
		ops, err = startOps(o.httpAddr, node, tr, rec, sink, started)
		if err != nil {
			return err
		}
		defer ops.close()
		p.logf("ops server on http://%s", ops.addr())
	}

	p.logf("listening on %s (lifeguard=%v coords=%v α=%g β=%g probe=%v/%v)",
		tr.LocalAddr(), !o.swim, !o.disableCoords, o.alpha, o.beta,
		cfg.ProbeInterval, cfg.ProbeTimeout)

	if o.join != "" {
		if err := node.Join(o.join); err != nil {
			return fmt.Errorf("join %q: %w", o.join, err)
		}
		p.logf("joining via %s", o.join)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if o.printMembers > 0 {
		ticker = time.NewTicker(o.printMembers)
		defer ticker.Stop()
		tick = ticker.C
	}

	for {
		select {
		case <-tick:
			printMembers(p, node)
		case sig := <-sigCh:
			p.logf("received %v, leaving", sig)
			node.Leave()
			waitLeaveDrain(p, node, o.leaveTimeout)
			return nil
		}
	}
}

// waitLeaveDrain blocks until the leave announcement itself has
// exhausted its gossip retransmit budget, or until the timeout elapses.
// Tracking the specific leave update (LeavePending) rather than the
// whole queue keeps unrelated membership churn from stalling shutdown,
// and a momentarily empty queue from ending the wait before the leave
// has met its retransmit count. With no live peers there is no one to
// inform and broadcasts can never drain, so it returns immediately.
func waitLeaveDrain(p printer, node *lifeguard.Node, timeout time.Duration) {
	if timeout <= 0 || node.NumAlive() == 0 {
		return
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if !node.LeavePending() {
			p.logf("leave broadcast drained")
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	p.logf("leave drain timed out after %v (leave announcement still pending)", timeout)
}

func printMembers(p printer, node *lifeguard.Node) {
	ms := node.Members()
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	alive := 0
	for _, m := range ms {
		if m.State == lifeguard.StateAlive {
			alive++
		}
	}
	p.logf("members: %d total, %d alive (LHM=%d)", len(ms), alive, node.HealthScore())
	for _, m := range ms {
		p.logf("  %-20s %-8s inc=%d addr=%s", m.Name, m.State, m.Incarnation, m.Addr)
	}
}
