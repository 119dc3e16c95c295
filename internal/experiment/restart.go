package experiment

import (
	"fmt"
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
	return p
}

// restartCast deterministically selects the members restarted across
// the run: Waves × PerWave distinct members, excluding member 0 (the
// join seed), identical across every cell.
func restartCast(p RestartParams, seed int64) []string {
	return cast(p.N, p.Waves*p.PerWave, seed*127+29)
}

// RunRestartCell executes one configuration's rolling-restart run:
// quiesce, then Waves staggered leave/rejoin waves, then a settle
// phase, scored from the event log. It returns the cell's record
// (docs/LIFEBENCH.md lists its keys) and the full membership event log.
// cc.N is taken from the params and must be left zero.
func RunRestartCell(cc ClusterConfig, p RestartParams) (Record, []metrics.Event, error) {
	p = p.withDefaults()
	if p.Waves*p.PerWave > p.N-1 {
		return Record{}, nil, fmt.Errorf(
			"experiment: rolling restart needs %d distinct members (%d waves × %d) but only %d are eligible (N=%d minus the join seed)",
			p.Waves*p.PerWave, p.Waves, p.PerWave, p.N-1, p.N)
	}
	cc.N = p.N
	c, err := NewCluster(cc)
	if err != nil {
		return Record{}, nil, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return Record{}, nil, err
	}

	restarted := restartCast(p, cc.Seed)
	var s script
	for i, name := range restarted {
		offset := time.Duration(i/p.PerWave) * restartWaveEvery
		if p.PerWave > 1 {
			offset += restartStagger * time.Duration(i%p.PerWave) / time.Duration(p.PerWave-1)
		}
		s = append(s, entry{at: offset, op: opLeave, node: name},
			entry{at: offset + restartLeaveLinger, op: opStop, node: name},
			entry{at: offset + restartDownFor, op: opJoin, node: name})
	}
	r := c.play(s)
	horizon := time.Duration(p.Waves-1)*restartWaveEvery + restartStagger + restartDownFor + p.Settle
	if err := r.runTo(horizon); err != nil {
		return Record{}, nil, err
	}

	events := c.Events.Events()
	score := scoreDeaths(events, r.start, r.gone, r.faulted)

	// Re-join convergence: for each restarted member, the first
	// post-rejoin sighting (join or alive at a higher-than-departed
	// incarnation) at each sampled long-lived observer; the member
	// counts as rejoined when every observer saw it, and its latency is
	// the slowest observer's.
	observers := make(map[string]bool, restartObservers)
	for i := 0; i < p.N && len(observers) < restartObservers; i++ {
		name := NodeName(i)
		if _, left := r.gone[name]; !left {
			observers[name] = true
		}
	}
	firstSeen := make(map[string]time.Time) // observer|subject
	for _, ev := range events {
		if ev.Type != metrics.EventJoin && ev.Type != metrics.EventAlive {
			continue
		}
		// A restarted member rejoins restartDownFor after its leave.
		left, ok := r.gone[ev.Subject]
		if !ok || !observers[ev.Observer] || ev.Time.Before(left.at.Add(restartDownFor)) || ev.Incarnation <= left.inc {
			continue
		}
		key := ev.Observer + "|" + ev.Subject
		if _, seen := firstSeen[key]; !seen {
			firstSeen[key] = ev.Time
		}
	}
	rejoined := 0
	var converge []float64
	for _, name := range restarted {
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
			rejoined++
			converge = append(converge, last.Sub(r.gone[name].at.Add(restartDownFor)).Seconds())
		}
	}
	rejoin := stats.Summarize(converge)
	total := c.Net.TotalStats()
	return Record{
		Experiment: "rolling-restart",
		Config:     cc.Protocol.Name,
		Params: map[string]any{
			"members":      p.N,
			"waves":        p.Waves,
			"per_wave":     p.PerWave,
			"down_for_s":   restartDownFor.Seconds(),
			"stagger_s":    restartStagger.Seconds(),
			"wave_every_s": restartWaveEvery.Seconds(),
			"settle_s":     p.Settle.Seconds(),
		},
		Metrics: map[string]float64{
			"restarts":        float64(len(restarted)),
			"rejoined":        float64(rejoined),
			"fp":              float64(score.FP),
			"fp_healthy":      float64(score.FPHealthy),
			"rejoin_median_s": rejoin.Median,
			"rejoin_max_s":    rejoin.Max,
			"msgs_sent":       float64(total.MsgsSent),
			"bytes_sent":      float64(total.BytesSent),
		},
	}, events, nil
}

// restartCells enumerates the configuration axis, Configurations in
// order, every cell at cc's seed with cc.Protocol overridden, so
// columns are directly comparable.
func restartCells(cc ClusterConfig, p RestartParams) []Cell {
	cells := make([]Cell, 0, len(Configurations))
	for _, proto := range Configurations {
		cellCC := cc
		cellCC.Protocol = proto
		cells = append(cells, Cell{
			Label: fmt.Sprintf("rolling-restart %s", proto.Name),
			Run: func() (any, error) {
				rec, _, err := RunRestartCell(cellCC, p)
				return rec, err
			},
		})
	}
	return cells
}
