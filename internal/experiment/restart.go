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

	// restartSettle is how long the run continues after the last wave's
	// rejoins, for views to converge.
	restartSettle = 30 * time.Second

	// restartObservers is the number of long-lived (never restarted)
	// members sampled for the re-join convergence metric.
	restartObservers = 8
)

// restartPerWave is the number of members an n-member cluster restarts
// in each wave: an eighth of them, at least one.
func restartPerWave(n int) int { return max(1, n/8) }

// restartCast deterministically selects the members restarted across
// a run of n members: waves × restartPerWave(n) distinct members,
// excluding member 0 (the join seed), identical across every cell. Each
// member restarts at most once.
func restartCast(n, waves int, seed int64) []string {
	return cast(n, waves*restartPerWave(n), seed*127+29)
}

// runRestartCell executes one configuration's rolling-restart run:
// quiesce, then waves staggered leave/rejoin waves, then a settle
// phase, scored from the event log. It returns the cell's record
// (docs/LIFEBENCH.md lists its keys) and the full membership event log.
func runRestartCell(cc ClusterConfig, waves int) (Record, []metrics.Event, error) {
	perWave := restartPerWave(cc.N)
	if waves*perWave > cc.N-1 {
		return Record{}, nil, fmt.Errorf(
			"experiment: rolling restart needs %d distinct members (%d waves × %d) but only %d are eligible (N=%d minus the join seed)",
			waves*perWave, waves, perWave, cc.N-1, cc.N)
	}
	c, err := NewCluster(cc)
	if err != nil {
		return Record{}, nil, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return Record{}, nil, err
	}

	restarted := restartCast(cc.N, waves, cc.Seed)
	var s script
	for i, name := range restarted {
		offset := time.Duration(i/perWave) * restartWaveEvery
		if perWave > 1 {
			offset += restartStagger * time.Duration(i%perWave) / time.Duration(perWave-1)
		}
		s = append(s, entry{at: offset, op: opLeave, node: name},
			entry{at: offset + restartLeaveLinger, op: opStop, node: name},
			entry{at: offset + restartDownFor, op: opJoin, node: name})
	}
	r := c.play(s)
	horizon := time.Duration(waves-1)*restartWaveEvery + restartStagger + restartDownFor + restartSettle
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
	for i := 0; i < cc.N && len(observers) < restartObservers; i++ {
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
			"members":      cc.N,
			"waves":        waves,
			"per_wave":     perWave,
			"down_for_s":   restartDownFor.Seconds(),
			"stagger_s":    restartStagger.Seconds(),
			"wave_every_s": restartWaveEvery.Seconds(),
			"settle_s":     restartSettle.Seconds(),
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
func restartCells(cc ClusterConfig, waves int) []cell {
	cells := make([]cell, 0, len(Configurations))
	for _, proto := range Configurations {
		cellCC := cc
		cellCC.Protocol = proto
		cells = append(cells, cell{
			Label: fmt.Sprintf("rolling-restart %s", proto.Name),
			Run: func() (any, error) {
				rec, _, err := runRestartCell(cellCC, waves)
				return rec, err
			},
		})
	}
	return cells
}
