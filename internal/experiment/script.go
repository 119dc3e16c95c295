package experiment

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"lifeguard/internal/sim"
)

// This file is how every scenario disturbs its cluster. A scenario
// writes a script — timed entries that pause, degrade, crash, impair or
// cut a member, make it leave or stop, or join a fresh one — and one
// runner applies it. Each departure is stated once, on the entry that
// causes it, and the runner derives from the entries the departures the
// run is scored against (score.go).

// op is what a script entry does to its member. Each fault is followed
// by the op that undoes it.
type op uint8

const (
	opPause   op = iota // stall it, inbound buffered or dropped per mode
	opResume            // end a pause
	opDegrade           // slow its processing by draws from delay
	opRestore           // end a degradation
	opImpair            // impair its links with peers, both ways, with link
	opClear             // remove those impairments
	opCut               // fail its links to peers, and back unless oneWay
	opHeal              // restore the links a cut failed
	opCrash             // silence it for good
	opLeave             // announce a graceful leave; it keeps running
	opStop              // shut it down and detach it
	opJoin              // start a fresh member under the name, joined through member 0
)

// entry is one timed disturbance: at is its offset from the start of
// the run, node the member it acts on.
type entry struct {
	at   time.Duration
	op   op
	node string

	peers  []string      // opImpair, opClear, opCut, opHeal: the links' far ends
	oneWay bool          // opCut, opHeal: only node's sends are cut; it still hears peers
	link   sim.LinkFault // opImpair
	delay  sim.DelayDist // opDegrade
	mode   sim.PauseMode // opPause

	// anomaly marks a pause of a member of the paper's anomaly set
	// (§V-D): the member departs. Any other pause leaves it alive, only
	// impaired.
	anomaly bool
}

// script is a run's disturbances, listed in any order (see run).
type script []entry

// span appends the fault e (a pause, degrade, impair or cut) and, at
// until, the entry that undoes it.
func (s script) span(e entry, until time.Duration) script {
	undo := e
	undo.at, undo.op = until, e.op+1
	return append(s, e, undo)
}

// anomaly appends one window of the paper's synchronized anomaly
// (§V-D, footnote 6): every named member paused, inbound buffered, at
// at and resumed d later, in lock step.
func (s script) anomaly(names []string, at, d time.Duration) script {
	for _, name := range names {
		s = s.span(entry{at: at, op: opPause, node: name, anomaly: true}, at+d)
	}
	return s
}

// run is a script being applied to a cluster. Entries apply after every
// event at or before their instant: the scheduler runs to the instant,
// then every entry at it applies, in script order, before any event
// they cause runs. That is where and how a driver stepping the
// scheduler by hand and then acting in lock step would act, so the
// paper tables keep their records.
type run struct {
	c       *Cluster
	entries script // sorted by offset, not yet applied
	start   time.Time

	// gone holds each member's first departure, the map scoreDeaths
	// reads: crash, stop and anomaly-pause entries depart their member at
	// any incarnation, scored for detection; a leave departs it at the
	// incarnation it held, as legitimate news only.
	gone map[string]departure

	// faulted holds every member a fault or departure entry named: not
	// a healthy observer for FP⁻. A link entry faults node, not peers.
	faulted map[string]bool
}

// play starts s on the cluster at the current instant.
func (c *Cluster) play(s script) *run {
	s = slices.Clone(s)
	slices.SortStableFunc(s, func(a, b entry) int { return cmp.Compare(a.at, b.at) })
	r := &run{c: c, entries: s, start: c.Sched.Now(), gone: make(map[string]departure), faulted: make(map[string]bool)}
	if c.cc.played != nil {
		c.cc.played(r)
	}
	return r
}

// runTo applies every entry before off, then runs the events up to off.
func (r *run) runTo(off time.Duration) error {
	err := r.applyBefore(off)
	r.c.Sched.RunUntil(r.start.Add(off))
	return err
}

// finish applies every entry left and stops at the last one's instant.
func (r *run) finish() error { return r.applyBefore(math.MaxInt64) }

func (r *run) applyBefore(off time.Duration) error {
	for len(r.entries) > 0 && r.entries[0].at < off {
		at := r.entries[0].at
		r.c.Sched.RunUntil(r.start.Add(at))
		for len(r.entries) > 0 && r.entries[0].at == at {
			if err := r.apply(r.entries[0]); err != nil {
				return err
			}
			r.entries = r.entries[1:]
		}
	}
	return nil
}

// apply performs one entry and notes the departure it states.
func (r *run) apply(e entry) error {
	c, net := r.c, r.c.Net
	dep := departure{at: c.Sched.Now(), inc: math.MaxUint64, crash: true}
	switch e.op {
	case opPause:
		net.Pause(e.node, e.mode)
	case opResume:
		net.Resume(e.node)
	case opDegrade:
		net.SetDegraded(e.node, e.delay)
	case opRestore:
		net.SetDegraded(e.node, sim.DelayDist{})
	case opCrash:
		net.Crash(e.node)
	case opImpair:
		for _, p := range e.peers {
			net.SetLinkFault(e.node, p, e.link)
			net.SetLinkFault(p, e.node, e.link)
		}
	case opClear:
		for _, p := range e.peers {
			net.ClearLinkFault(e.node, p)
			net.ClearLinkFault(p, e.node)
		}
	case opCut, opHeal:
		for _, p := range e.peers {
			net.FailLink(e.node, p, e.op == opCut)
			if !e.oneWay {
				net.FailLink(p, e.node, e.op == opCut)
			}
		}
	case opLeave:
		node := c.names[e.node]
		dep = departure{at: dep.at, inc: node.Incarnation()}
		node.Leave()
	case opStop:
		c.removeNode(e.node)
	case opJoin:
		node, err := c.addNode(e.node, nil)
		if err == nil {
			err = node.Start()
		}
		if err == nil {
			err = node.Join(c.Nodes[0].Addr())
		}
		if err != nil {
			return fmt.Errorf("experiment: join %s: %w", e.node, err)
		}
	}
	if e.op != opJoin {
		r.faulted[e.node] = true // an undo names the member its fault named
	}
	departs := e.op == opCrash || e.op == opLeave || e.op == opStop || e.op == opPause && e.anomaly
	if _, left := r.gone[e.node]; departs && !left {
		r.gone[e.node] = dep
	}
	return nil
}
