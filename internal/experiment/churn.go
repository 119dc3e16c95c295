package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"lifeguard/internal/core"
	"lifeguard/internal/stats"
)

// DefaultChurnN is the cluster size for the large-cluster churn
// scenario: paper-scale membership (the Lifeguard deployments behind
// §V run at thousands of members), well past the double-digit clusters
// the other experiments use.
const DefaultChurnN = 2048

// ChurnParams parameterizes the large-cluster churn scenario: a big
// cluster under continuous membership change — crash failures, graceful
// leaves, and fresh joins interleaved at a steady rate — verifying that
// detection latency and false-positive behavior hold at scale.
type ChurnParams struct {
	// Interval is the time between consecutive churn actions. Actions
	// cycle fail → join → leave → join, so the population stays roughly
	// stable. Defaults to 500 ms.
	Interval time.Duration

	// Duration is the length of the churn phase. Defaults to 30 s.
	Duration time.Duration

	// Settle is how long the cluster runs after the last churn action so
	// in-flight suspicions resolve before measurement. Defaults to twice
	// the cluster's maximum suspicion timeout.
	Settle time.Duration
}

// RunChurn executes the large-cluster churn scenario and returns its
// record (docs/LIFEBENCH.md lists its keys).
func RunChurn(cc ClusterConfig, p ChurnParams) (Record, error) {
	if cc.N == 0 {
		cc.N = DefaultChurnN
	}
	if p.Interval <= 0 {
		p.Interval = 500 * time.Millisecond
	}
	if p.Duration <= 0 {
		p.Duration = 30 * time.Second
	}
	if p.Settle <= 0 {
		// First detection of the last crash needs a probe round plus a
		// suspicion timeout. With thousands of probers the suspicion
		// gathers its K confirmations quickly and the timeout decays to
		// the §V-C floor Min = α·log10(n)·ProbeInterval, so 2.5·Min
		// covers probe, decay and dissemination slack.
		min := core.SuspicionMin(cc.Protocol.Alpha, cc.N, time.Second)
		p.Settle = time.Duration(2.5 * float64(min))
	}

	c, err := NewCluster(cc)
	if err != nil {
		return Record{}, err
	}
	defer c.Shutdown()
	// Quiesce must cover the join-stagger window plus epidemic
	// convergence of the bootstrap state before churn starts.
	if err := c.Start(Quiesce + bootstrapWindow(cc.N)); err != nil {
		return Record{}, err
	}

	s, end := churnScript(c.allNames()[1:], p, cc.Seed)
	r := c.play(s)
	if err := r.runTo(end + p.Settle); err != nil {
		return Record{}, err
	}

	// A dead event is legitimate only at or after the subject's own
	// crash or leave; crashes are also scored for first detection.
	score := scoreDeaths(c.Events.Events(), r.start, r.gone, r.faulted)
	var latencies []float64
	for name := range score.Detect {
		first, _, _ := score.detection(name, nil)
		latencies = append(latencies, first.Seconds())
	}
	firstDetect := stats.Summarize(latencies)

	// Join convergence: sample long-lived survivors and count how many
	// see each joined member alive. (Checking all ~2k observers would be
	// O(n²) map probes for no extra signal.)
	observers := []*core.Node{c.Nodes[0]}
	for _, n := range c.Nodes[1:] {
		if len(observers) >= 16 {
			break
		}
		if _, departed := r.gone[n.Name()]; !departed {
			observers = append(observers, n)
		}
	}
	// Every leave is followed by a stop; the other stops are crashes.
	count := map[op]int{}
	var joinsSeen, joinsSampled int
	for _, e := range s {
		count[e.op]++
		if _, departed := r.gone[e.node]; e.op != opJoin || departed {
			continue
		}
		for _, obs := range observers {
			joinsSampled++
			if m, ok := obs.Member(e.node); ok && m.State == core.StateAlive {
				joinsSeen++
			}
		}
	}
	return Record{
		Experiment: "churn",
		Config:     cc.Protocol.Name,
		Params: map[string]any{
			"members":    cc.N,
			"duration_s": p.Duration.Seconds(),
			"interval_s": p.Interval.Seconds(),
		},
		Metrics: map[string]float64{
			"fails":                 float64(count[opStop] - count[opLeave]),
			"leaves":                float64(count[opLeave]),
			"joins":                 float64(count[opJoin]),
			"detected_fails":        float64(len(latencies)),
			"first_detect_median_s": firstDetect.Median,
			"first_detect_max_s":    firstDetect.Max,
			"fp":                    float64(score.FP),
			"joins_seen":            float64(joinsSeen),
			"joins_sampled":         float64(joinsSampled),
		},
	}, nil
}

// churnScript draws the churn phase's actions from the seed, one every
// p.Interval while under p.Duration, cycling crash → join → leave →
// join so the population stays roughly stable. A crash stops a member;
// a leave announces, disseminates for 2 s, then stops. Crashes and
// leaves take a random member of the pool: initially pool (everyone but
// the join seed), shrinking as members are churned out and growing as
// fresh members join — a joiner enters the pool 10 s after its join,
// before any action at that instant, so a member is never crashed
// before the cluster has learned it exists. It returns the script and
// the offset at which the churn phase ends.
func churnScript(pool []string, p ChurnParams, seed int64) (script, time.Duration) {
	rng := rand.New(rand.NewSource(seed + 2))
	var s script
	var joined []entry
	t := time.Duration(0)
	for i := 0; t < p.Duration; i, t = i+1, t+p.Interval {
		for len(joined) > 0 && joined[0].at+10*time.Second <= t {
			pool, joined = append(pool, joined[0].node), joined[1:]
		}
		if i%2 == 1 {
			e := entry{at: t, op: opJoin, node: fmt.Sprintf("churn-%03d", i/2)}
			s, joined = append(s, e), append(joined, e)
			continue
		}
		if len(pool) == 0 {
			continue
		}
		k := rng.Intn(len(pool))
		name := pool[k]
		pool[k], pool = pool[len(pool)-1], pool[:len(pool)-1]
		if i%4 == 0 {
			s = append(s, entry{at: t, op: opStop, node: name})
		} else {
			s = append(s, entry{at: t, op: opLeave, node: name}, entry{at: t + 2*time.Second, op: opStop, node: name})
		}
	}
	return s, t
}
