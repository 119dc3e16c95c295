package experiment

import (
	"time"

	"lifeguard/internal/core"
)

// This file implements the partition/heal experiment behind the paper's
// robustness claim (§II): "Even fully partitioned sub-groups can
// continue to operate, and will automatically merge once connectivity is
// re-established." It is not one of the paper's measured tables, but it
// exercises the anti-entropy and refutation machinery the tables depend
// on, so it ships with its own harness and bench.

// PartitionParams parameterizes one partition/heal experiment.
type PartitionParams struct {
	// SizeA is the size of the first partition (the side holding the
	// join seed).
	SizeA int

	// Duration is how long the partition lasts.
	Duration time.Duration

	// HealBudget is how long after healing the cluster gets to fully
	// re-converge.
	HealBudget time.Duration
}

// RunPartition executes one partition/heal experiment and returns its
// record (docs/LIFEBENCH.md lists its keys).
func RunPartition(cc ClusterConfig, p PartitionParams) (Record, error) {
	if cc.N == 0 {
		cc.N = 32
	}
	if p.SizeA <= 0 || p.SizeA >= cc.N {
		p.SizeA = cc.N / 2
	}
	if p.Duration <= 0 {
		p.Duration = time.Minute
	}
	if p.HealBudget <= 0 {
		p.HealBudget = 2 * time.Minute
	}

	c, err := NewCluster(cc)
	if err != nil {
		return Record{}, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return Record{}, err
	}

	var s script
	for _, a := range c.allNames()[:p.SizeA] {
		s = s.span(entry{op: opCut, node: a, peers: c.allNames()[p.SizeA:]}, p.Duration)
	}
	r := c.play(s)
	if err := r.runTo(p.Duration); err != nil {
		return Record{}, err
	}

	inA := func(i int) bool { return i < p.SizeA }
	sideSettled := func(a bool) bool {
		for i, n := range c.Nodes {
			if inA(i) != a {
				continue
			}
			for j := range c.Nodes {
				m, ok := n.Member(NodeName(j))
				if !ok {
					return false
				}
				sameSide := inA(j) == a
				if sameSide && m.State != core.StateAlive {
					return false
				}
				if !sameSide && m.State == core.StateAlive {
					return false
				}
			}
		}
		return true
	}
	m := map[string]float64{
		"side_a_converged":    b2f(sideSettled(true)),
		"side_b_converged":    b2f(sideSettled(false)),
		"cross_declared_dead": float64(c.countCrossDead(p.SizeA)),
		"remerged":            0,
		"remerge_s":           0,
	}

	if err := r.finish(); err != nil {
		return Record{}, err
	}
	healStart := c.Sched.Now()
	step := 500 * time.Millisecond
	for waited := time.Duration(0); waited < p.HealBudget; waited += step {
		c.Sched.RunFor(step)
		if c.Converged() {
			m["remerged"] = 1
			m["remerge_s"] = c.Sched.Now().Sub(healStart).Seconds()
			break
		}
	}
	return Record{
		Experiment: "partition",
		Config:     cc.Protocol.Name,
		Params: map[string]any{
			"members":       cc.N,
			"size_a":        p.SizeA,
			"duration_s":    p.Duration.Seconds(),
			"heal_budget_s": p.HealBudget.Seconds(),
		},
		Metrics: m,
	}, nil
}

// b2f encodes a boolean outcome as a record metric: 1 or 0.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// countCrossDead counts members of each side currently holding the other
// side dead (a saturated split sees sizeA·(n−sizeA)·2 entries).
func (c *Cluster) countCrossDead(sizeA int) int {
	count := 0
	for i, n := range c.Nodes {
		for j := range c.Nodes {
			if (i < sizeA) == (j < sizeA) {
				continue
			}
			if m, ok := n.Member(NodeName(j)); ok &&
				(m.State == core.StateDead || m.State == core.StateSuspect) {
				count++
			}
		}
	}
	return count
}
