// Quickstart: a five-member Lifeguard cluster over real UDP on
// loopback. It forms the group, prints the converged membership, kills
// one member, and watches the failure detector declare it dead.
//
//	go run ./examples/quickstart
//
// Runs in under ten seconds of wall time (cluster formation and the
// failure detector's suspicion timeout dominate), and exits 1 if
// member-3 is not declared dead.
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"lifeguard"
)

const clusterSize = 5

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

type logger struct{ name string }

func (l logger) logf(format string, args ...any) {
	fmt.Printf("%7.2fs [%s] %s\n", time.Since(start).Seconds(), l.name, fmt.Sprintf(format, args...))
}

func (l logger) NotifyJoin(m lifeguard.Member)    { l.logf("join:    %s", m.Name) }
func (l logger) NotifySuspect(m lifeguard.Member) { l.logf("suspect: %s", m.Name) }
func (l logger) NotifyAlive(m lifeguard.Member)   { l.logf("refuted: %s", m.Name) }
func (l logger) NotifyDead(m lifeguard.Member)    { l.logf("dead:    %s", m.Name) }
func (l logger) NotifyUpdate(m lifeguard.Member)  { l.logf("update:  %s", m.Name) }

var start = time.Now()

func run() error {
	type member struct {
		node *lifeguard.Node
		tr   *lifeguard.UDPTransport
	}
	var cluster []member
	defer func() {
		for _, m := range cluster {
			m.node.Shutdown()
			m.tr.Close()
		}
	}()

	// Boot N members on loopback; everyone joins through the first.
	for i := 0; i < clusterSize; i++ {
		name := fmt.Sprintf("member-%d", i)
		tr, err := lifeguard.NewUDPTransport("127.0.0.1:0")
		if err != nil {
			return err
		}
		cfg := lifeguard.DefaultConfig(name)
		cfg.Addr = tr.LocalAddr()
		cfg.Transport = tr
		cfg.Events = logger{name: name}
		// Faster protocol period than the paper's 1 s, to keep the demo
		// brisk; every timeout scales with it.
		cfg.ProbeInterval = 500 * time.Millisecond
		cfg.ProbeTimeout = 250 * time.Millisecond

		node, err := lifeguard.NewNode(cfg)
		if err != nil {
			tr.Close()
			return err
		}
		tr.Run(node.HandlePacket)
		if err := node.Start(); err != nil {
			tr.Close()
			return err
		}
		cluster = append(cluster, member{node: node, tr: tr})
		if i > 0 {
			if err := node.Join(cluster[0].node.Addr()); err != nil {
				return err
			}
		}
	}

	fmt.Println("--- forming cluster ---")
	time.Sleep(3 * time.Second)
	printMembers(cluster[0].node)

	fmt.Println("--- killing member-3 (no graceful leave) ---")
	cluster[3].node.Shutdown()
	cluster[3].tr.Close()

	// Suspicion timeout here is α·log10(n)·probeInterval ≈ 2.5 s floor,
	// starting higher under LHA-Suspicion; give it time to confirm.
	deadline := time.Now().Add(45 * time.Second)
	for time.Now().Before(deadline) {
		if m, ok := cluster[0].node.Member("member-3"); ok && m.State == lifeguard.StateDead {
			break
		}
		time.Sleep(500 * time.Millisecond)
	}
	printMembers(cluster[0].node)

	m, _ := cluster[0].node.Member("member-3")
	if m.State != lifeguard.StateDead {
		return fmt.Errorf("member-3 not detected as dead within deadline (state %v)", m.State)
	}
	fmt.Println("--- member-3 correctly detected as failed ---")
	return nil
}

func printMembers(n *lifeguard.Node) {
	ms := n.Members()
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	fmt.Printf("membership at %s:\n", n.Name())
	for _, m := range ms {
		fmt.Printf("  %-10s %-8s inc=%d\n", m.Name, m.State, m.Incarnation)
	}
}
