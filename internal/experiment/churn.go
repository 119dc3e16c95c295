package experiment

import (
	"fmt"
	"math"
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

// ChurnResult reports protocol behavior across one churn run.
type ChurnResult struct {
	Params ChurnParams

	// N is the initial cluster size.
	N int

	// Fails, Leaves and Joins count the churn actions performed.
	Fails, Leaves, Joins int

	// FirstDetect summarizes, per crashed member that was detected, the
	// seconds from crash to the first dead event at a surviving member.
	FirstDetect stats.Summary

	// DetectedFails counts crashed members detected by at least one
	// surviving member within the run.
	DetectedFails int

	// FP counts false-positive failure events: dead events about members
	// that had not (yet) crashed or left.
	FP int

	// JoinsSeen counts joined members that a sample of long-lived
	// surviving members sees alive at the end of the run.
	JoinsSeen int

	// JoinsSampled is the sample size behind JoinsSeen (joins × sampled
	// observers).
	JoinsSampled int
}

// RunChurn executes the large-cluster churn scenario.
func RunChurn(cc ClusterConfig, p ChurnParams) (ChurnResult, error) {
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
		return ChurnResult{}, err
	}
	defer c.Shutdown()
	// Quiesce must cover the join-stagger window plus epidemic
	// convergence of the bootstrap state before churn starts.
	if err := c.Start(Quiesce + bootstrapWindow(cc.N)); err != nil {
		return ChurnResult{}, err
	}

	res := ChurnResult{Params: p, N: cc.N}
	rng := rand.New(rand.NewSource(cc.Seed + 2))

	// pool is the set of members eligible for fail/leave: initially
	// everyone but the join seed (member 0), shrinking as members are
	// churned out and growing as fresh members join and converge (joined
	// members enter the pool after a dissemination delay, so a member is
	// never crashed before the cluster has learned it exists).
	pool := make([]string, 0, cc.N)
	for _, n := range c.Nodes[1:] {
		pool = append(pool, n.Name())
	}
	takeRandom := func() (string, bool) {
		if len(pool) == 0 {
			return "", false
		}
		i := rng.Intn(len(pool))
		name := pool[i]
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		return name, true
	}

	// gone holds every crash and leave, the departures the run is scored
	// against.
	gone := map[string]departure{}
	var joined []string

	seedAddr := c.Nodes[0].Addr()
	churnStart := c.Sched.Now()
	deadline := churnStart.Add(p.Duration)
	for i := 0; c.Sched.Now().Before(deadline); i++ {
		switch i % 4 {
		case 0: // crash failure: the process vanishes mid-protocol
			name, ok := takeRandom()
			if !ok {
				break
			}
			node := c.names[name]
			node.Shutdown()
			c.Net.Detach(name)
			gone[name] = departure{at: c.Sched.Now(), inc: math.MaxUint64, crash: true}
			res.Fails++
		case 2: // graceful leave: announce, disseminate briefly, then exit
			name, ok := takeRandom()
			if !ok {
				break
			}
			node := c.names[name]
			node.Leave()
			gone[name] = departure{at: c.Sched.Now(), inc: math.MaxUint64}
			c.Sched.Schedule(2*time.Second, func() {
				node.Shutdown()
				c.Net.Detach(name)
			})
			res.Leaves++
		default: // join: a fresh member enters through the seed
			name := fmt.Sprintf("churn-%03d", res.Joins)
			node, err := c.addNode(name, nil)
			if err != nil {
				return ChurnResult{}, err
			}
			if err := node.Start(); err != nil {
				return ChurnResult{}, fmt.Errorf("experiment: start %s: %w", name, err)
			}
			if err := node.Join(seedAddr); err != nil {
				return ChurnResult{}, fmt.Errorf("experiment: join %s: %w", name, err)
			}
			joined = append(joined, name)
			res.Joins++
			// Once the join has disseminated, the member is fair game
			// for fail/leave like anyone else.
			c.Sched.Schedule(10*time.Second, func() {
				if _, departed := gone[name]; !departed {
					pool = append(pool, name)
				}
			})
		}
		c.Sched.RunFor(p.Interval)
	}
	c.Sched.RunFor(p.Settle)

	// A dead event is legitimate only at or after the subject's own
	// crash or leave; crashes are also scored for first detection.
	score := scoreDeaths(c.Events.Events(), churnStart, gone)
	res.FP = score.FP
	var latencies []float64
	for name := range score.Detect {
		first, _, _ := score.detection(name, nil)
		latencies = append(latencies, first.Seconds())
	}
	res.DetectedFails = len(latencies)
	res.FirstDetect = stats.Summarize(latencies)

	// Join convergence: sample long-lived survivors and count how many
	// see each joined member alive. (Checking all ~2k observers would be
	// O(n²) map probes for no extra signal.)
	observers := []*core.Node{c.Nodes[0]}
	for _, n := range c.Nodes[1:] {
		if len(observers) >= 16 {
			break
		}
		if _, departed := gone[n.Name()]; !departed {
			observers = append(observers, n)
		}
	}
	for _, name := range joined {
		if _, departed := gone[name]; departed {
			continue
		}
		for _, obs := range observers {
			res.JoinsSampled++
			if m, ok := obs.Member(name); ok && m.State == core.StateAlive {
				res.JoinsSeen++
			}
		}
	}
	return res, nil
}
