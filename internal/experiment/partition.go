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

// The partition/heal timeline.
const (
	// partitionFor is how long the split lasts.
	partitionFor = time.Minute

	// partitionHealBudget is how long after healing the cluster gets to
	// fully re-converge.
	partitionHealBudget = 2 * time.Minute
)

// runPartition executes one partition/heal experiment — the first
// cc.N/2 members (the side holding the join seed) cut off from the
// rest for partitionFor, then healed — and returns its record
// (docs/LIFEBENCH.md lists its keys).
func runPartition(cc ClusterConfig) (Record, error) {
	sizeA := cc.N / 2

	c, err := NewCluster(cc)
	if err != nil {
		return Record{}, err
	}
	defer c.Shutdown()
	if err := c.Start(Quiesce); err != nil {
		return Record{}, err
	}

	var s script
	for _, a := range c.allNames()[:sizeA] {
		s = s.span(entry{op: opCut, node: a, peers: c.allNames()[sizeA:]}, partitionFor)
	}
	r := c.play(s)
	if err := r.runTo(partitionFor); err != nil {
		return Record{}, err
	}

	inA := func(i int) bool { return i < sizeA }
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
		"cross_declared_dead": float64(c.countCrossDead(sizeA)),
		"remerged":            0,
		"remerge_s":           0,
	}

	if err := r.finish(); err != nil {
		return Record{}, err
	}
	healStart := c.Sched.Now()
	step := 500 * time.Millisecond
	for waited := time.Duration(0); waited < partitionHealBudget; waited += step {
		c.Sched.RunFor(step)
		if c.converged() {
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
			"size_a":        sizeA,
			"duration_s":    partitionFor.Seconds(),
			"heal_budget_s": partitionHealBudget.Seconds(),
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
