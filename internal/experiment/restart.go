package experiment

import (
	"fmt"
	"strings"
	"time"

	"lifeguard/internal/metrics"
	"lifeguard/internal/stats"
)

// The rolling-restart scenario models the most common planned
// disruption in real deployments: members leave and rejoin in staggered
// waves (a rolling deploy or kernel-upgrade cycle). Each restarted
// member announces a graceful leave, goes dark for a down window, and
// then rejoins under the same name — forcing the incarnation-refutation
// machinery to revive it from its own dead record. The scenario is
// scored per Table I configuration on false positives (dead
// declarations not explained by a departure), re-join convergence time
// (how long until long-lived observers see the restarted member alive
// again), and bandwidth.

// RestartParams parameterizes one rolling-restart run. Zero-valued
// fields take the documented defaults.
type RestartParams struct {
	// N is the cluster size. Defaults to 48.
	N int

	// Waves is the number of restart waves. Defaults to 3.
	Waves int

	// PerWave is the number of members restarted in each wave. Each
	// member restarts at most once across the run. Defaults to N/8 (at
	// least 1).
	PerWave int

	// Settle is how long the run continues after the last wave's
	// rejoins, for views to converge. Defaults to 30 s.
	Settle time.Duration

	// Configs is the protocol-ablation axis. Empty runs Configurations
	// (the paper's Table I).
	Configs []ProtocolConfig
}

// The shape of every rolling-restart wave.
const (
	// restartStagger is the span over which one wave's leaves are
	// spread: a rolling deploy takes machines down one after another,
	// not simultaneously.
	restartStagger = 2 * time.Second

	// restartDownFor is each member's dark window between its leave
	// announcement and its rejoin.
	restartDownFor = 10 * time.Second

	// restartWaveEvery is the interval between consecutive wave starts,
	// long enough for a wave's rejoins to settle before the next begins.
	restartWaveEvery = restartDownFor + restartStagger + 8*time.Second

	// restartLeaveLinger is how long a leaving member keeps running
	// after its announcement so the leave can disseminate; it is gone
	// well before its replacement rejoins.
	restartLeaveLinger = time.Second

	// restartObservers is the number of long-lived (never restarted)
	// members sampled for the re-join convergence metric.
	restartObservers = 8
)

// withDefaults resolves zero-valued parameters.
func (p RestartParams) withDefaults() RestartParams {
	if p.N == 0 {
		p.N = 48
	}
	if p.Waves <= 0 {
		p.Waves = 3
	}
	if p.PerWave <= 0 {
		p.PerWave = p.N / 8
		if p.PerWave < 1 {
			p.PerWave = 1
		}
	}
	if p.Settle <= 0 {
		p.Settle = 30 * time.Second
	}
	if len(p.Configs) == 0 {
		p.Configs = Configurations
	}
	return p
}

// RestartCellResult is one configuration's rolling-restart score. It
// contains no pointers, slices or maps, so whole-struct equality is
// the determinism check.
type RestartCellResult struct {
	// Config identifies the protocol configuration.
	Config string

	// Restarts is the number of members restarted (Waves × PerWave).
	Restarts int

	// FP counts false-positive dead declarations: dead events about
	// members that never restarted, dead events about a restarting
	// member before its leave, and dead events about a rejoined
	// incarnation (incarnation above the one that left) — the restarted
	// member was alive again and still got killed. Stale dissemination
	// of the leave itself (dead events at or below the departing
	// incarnation, after the leave) is legitimate, however late it
	// lands. FPHealthy counts the subset raised at observers outside
	// the restart cast.
	FP, FPHealthy int

	// Rejoined counts restarted members that every sampled observer saw
	// alive again (at a post-leave incarnation) after their rejoin.
	Rejoined int

	// RejoinConverge summarizes, in seconds per fully re-seen member,
	// the time from rejoin to the moment the last sampled observer saw
	// it alive again.
	RejoinConverge stats.Summary

	// MsgsSent and BytesSent total transport load over the run.
	MsgsSent, BytesSent int64

	// EventDigest is an FNV-64a digest of the full membership event
	// log — the byte-identical-replay fingerprint for this cell.
	EventDigest string
}

// RestartResult holds one rolling-restart run across the configuration
// axis.
type RestartResult struct {
	// Params echoes the resolved parameters.
	Params RestartParams

	// Cells holds one result per configuration, in Params.Configs
	// order.
	Cells []RestartCellResult
}

// restartCast deterministically selects the members restarted across
// the run: Waves × PerWave distinct members, excluding member 0 (the
// join seed), identical across every cell.
func restartCast(p RestartParams, seed int64) []string {
	return cast(p.N, p.Waves*p.PerWave, seed*127+29)
}

// RunRestartCell executes one configuration's rolling-restart run:
// quiesce, then Waves staggered leave/rejoin waves, then a settle
// phase, scored from the event log. cc.N is taken from the params and
// must be left zero.
func RunRestartCell(cc ClusterConfig, p RestartParams) (RestartCellResult, error) {
	p = p.withDefaults()
	if p.Waves*p.PerWave > p.N-1 {
		return RestartCellResult{}, fmt.Errorf(
			"experiment: rolling restart needs %d distinct members (%d waves × %d) but only %d are eligible (N=%d minus the join seed)",
			p.Waves*p.PerWave, p.Waves, p.PerWave, p.N-1, p.N)
	}
	cc.N = p.N
	c, err := NewCluster(cc)
	if err != nil {
		return RestartCellResult{}, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return RestartCellResult{}, err
	}

	cast := restartCast(p, cc.Seed)
	// gone holds each restarted member's leave: the departure news
	// carries at most the incarnation it left at; anything above refers
	// to the rejoined instance. Every leave lands before the horizon.
	gone := make(map[string]departure, len(cast))
	rejoinAt := make(map[string]time.Time, len(cast))
	seedAddr := c.Nodes[0].Addr()
	start := c.Sched.Now()
	var runErr error
	for w := 0; w < p.Waves; w++ {
		for j := 0; j < p.PerWave; j++ {
			name := cast[w*p.PerWave+j]
			offset := time.Duration(w) * restartWaveEvery
			if p.PerWave > 1 {
				offset += restartStagger * time.Duration(j) / time.Duration(p.PerWave-1)
			}
			leaveAt := start.Add(offset)
			c.Sched.ScheduleAt(leaveAt, func() {
				node := c.names[name]
				gone[name] = departure{at: c.Sched.Now(), inc: node.Incarnation()}
				node.Leave()
			})
			c.Sched.ScheduleAt(leaveAt.Add(restartLeaveLinger), func() {
				c.RemoveNode(name)
			})
			c.Sched.ScheduleAt(leaveAt.Add(restartDownFor), func() {
				node, err := c.addNode(name, nil)
				if err == nil {
					err = node.Start()
				}
				if err == nil {
					rejoinAt[name] = c.Sched.Now()
					err = node.Join(seedAddr)
				}
				if err != nil && runErr == nil {
					runErr = fmt.Errorf("experiment: rejoin %s: %w", name, err)
				}
			})
		}
	}
	horizon := time.Duration(p.Waves-1)*restartWaveEvery + restartStagger + restartDownFor + p.Settle
	c.Sched.RunFor(horizon)
	if runErr != nil {
		return RestartCellResult{}, runErr
	}

	events := c.Events.Events()
	score := scoreDeaths(events, start, gone)
	res := RestartCellResult{
		Config:    cc.Protocol.Name,
		Restarts:  len(cast),
		FP:        score.FP,
		FPHealthy: score.FPHealthy,
	}

	// Re-join convergence: for each restarted member, the first
	// post-rejoin sighting (join or alive at a higher-than-departed
	// incarnation) at each sampled long-lived observer; the member
	// counts as rejoined when every observer saw it, and its latency is
	// the slowest observer's.
	observers := make(map[string]bool, restartObservers)
	for i := 0; i < p.N && len(observers) < restartObservers; i++ {
		name := NodeName(i)
		if _, restarted := gone[name]; !restarted {
			observers[name] = true
		}
	}
	firstSeen := make(map[string]time.Time) // observer|subject
	for _, ev := range events {
		if ev.Type != metrics.EventJoin && ev.Type != metrics.EventAlive {
			continue
		}
		back, ok := rejoinAt[ev.Subject]
		if !ok || !observers[ev.Observer] || ev.Time.Before(back) || ev.Incarnation <= gone[ev.Subject].inc {
			continue
		}
		key := ev.Observer + "|" + ev.Subject
		if _, seen := firstSeen[key]; !seen {
			firstSeen[key] = ev.Time
		}
	}
	var converge []float64
	for _, name := range cast {
		var last time.Time
		sawAll := true
		for obs := range observers {
			t, ok := firstSeen[obs+"|"+name]
			if !ok {
				sawAll = false
				break
			}
			if t.After(last) {
				last = t
			}
		}
		if sawAll {
			res.Rejoined++
			converge = append(converge, last.Sub(rejoinAt[name]).Seconds())
		}
	}
	res.RejoinConverge = stats.Summarize(converge)

	total := c.Net.TotalStats()
	res.MsgsSent = total.MsgsSent
	res.BytesSent = total.BytesSent
	res.EventDigest = eventDigest(events)
	return res, nil
}

// restartCells enumerates the configuration axis, every cell at cc's
// seed with cc.Protocol overridden, so columns are directly comparable.
func restartCells(cc ClusterConfig, p RestartParams) []Cell {
	p = p.withDefaults()
	cells := make([]Cell, 0, len(p.Configs))
	for _, proto := range p.Configs {
		cellCC := cc
		cellCC.Protocol = proto
		cells = append(cells, Cell{
			Label: fmt.Sprintf("rolling-restart %s", proto.Name),
			Run:   func() (any, error) { return RunRestartCell(cellCC, p) },
		})
	}
	return cells
}

// restartResult assembles a run from restartCells' outputs.
func restartResult(p RestartParams, outs []any) (RestartResult, error) {
	cells, err := outsAs[RestartCellResult](outs)
	return RestartResult{Params: p.withDefaults(), Cells: cells}, err
}

// RunRestart executes the rolling-restart scenario across the
// configuration axis with one shared seed. cc.Protocol is overridden
// per cell; cc.N must be left zero (the params size the cluster).
func RunRestart(cc ClusterConfig, p RestartParams) (RestartResult, error) {
	outs, err := runCells(restartCells(cc, p), 1, nil)
	if err != nil {
		return RestartResult{}, err
	}
	return restartResult(p, outs)
}

// FormatRestart renders a rolling-restart run as the per-configuration
// comparison table.
func FormatRestart(r RestartResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rolling restart: N=%d, %d waves × %d members, down %v, stagger %v\n",
		r.Params.N, r.Params.Waves, r.Params.PerWave, restartDownFor, restartStagger)
	fmt.Fprintf(&b, "%-14s %9s %9s %4s %4s %12s %12s %10s %10s\n",
		"Config", "Restarts", "Rejoined", "FP", "FP-", "MedRejoin(s)", "MaxRejoin(s)", "Msgs", "MB")
	for _, cell := range r.Cells {
		fmt.Fprintf(&b, "%-14s %9d %9d %4d %4d %12.2f %12.2f %10d %10.1f\n",
			cell.Config, cell.Restarts, cell.Rejoined, cell.FP, cell.FPHealthy,
			cell.RejoinConverge.Median, cell.RejoinConverge.Max,
			cell.MsgsSent, float64(cell.BytesSent)/1e6)
	}
	return b.String()
}
