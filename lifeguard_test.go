package lifeguard_test

// End-to-end tests of the public API over real UDP/TCP on loopback:
// what a downstream user of the library actually runs.

import (
	"fmt"
	"testing"
	"time"

	"lifeguard"
)

type udpMember struct {
	node *lifeguard.Node
	tr   *lifeguard.UDPTransport
}

// startUDPCluster boots n members with fast timers and joins them
// through the first.
func startUDPCluster(t *testing.T, n int, configure func(*lifeguard.Config)) []udpMember {
	t.Helper()
	var cluster []udpMember
	t.Cleanup(func() {
		for _, m := range cluster {
			m.node.Shutdown()
			m.tr.Close()
		}
	})
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("udp-%d", i)
		tr, err := lifeguard.NewUDPTransport("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := lifeguard.DefaultConfig(name)
		cfg.Addr = tr.LocalAddr()
		cfg.Transport = tr
		// Accelerated timers so the suite stays fast; every protocol
		// timeout scales off these.
		cfg.ProbeInterval = 100 * time.Millisecond
		cfg.ProbeTimeout = 50 * time.Millisecond
		if configure != nil {
			configure(cfg)
		}
		node, err := lifeguard.NewNode(cfg)
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		tr.Run(node.HandlePacket)
		if err := node.Start(); err != nil {
			tr.Close()
			t.Fatal(err)
		}
		cluster = append(cluster, udpMember{node: node, tr: tr})
		if i > 0 {
			if err := node.Join(cluster[0].node.Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cluster
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestUDPClusterConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	cluster := startUDPCluster(t, 4, nil)
	waitFor(t, 10*time.Second, func() bool {
		for _, m := range cluster {
			alive := 0
			for _, mm := range m.node.Members() {
				if mm.State == lifeguard.StateAlive {
					alive++
				}
			}
			if alive != len(cluster) {
				return false
			}
		}
		return true
	}, "full convergence")
}

func TestUDPClusterDetectsCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	cluster := startUDPCluster(t, 4, nil)
	waitFor(t, 10*time.Second, func() bool {
		return cluster[0].node.NumAlive() == len(cluster)
	}, "convergence")

	victim := cluster[2]
	victim.node.Shutdown()
	victim.tr.Close()

	// Suspicion floor: 5·max(1,log10(4))·100ms = 500ms; with β=6 and
	// confirmations from 2 healthy peers it lands well under 5s.
	waitFor(t, 20*time.Second, func() bool {
		m, ok := cluster[0].node.Member(victim.node.Name())
		return ok && m.State == lifeguard.StateDead
	}, "crash detection")
}

func TestUDPClusterGracefulLeave(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	cluster := startUDPCluster(t, 3, nil)
	waitFor(t, 10*time.Second, func() bool {
		return cluster[0].node.NumAlive() == len(cluster)
	}, "convergence")

	cluster[1].node.Leave()
	waitFor(t, 10*time.Second, func() bool {
		m, ok := cluster[0].node.Member(cluster[1].node.Name())
		return ok && m.State == lifeguard.StateLeft
	}, "leave dissemination")
}

func TestUDPSuspicionRefutedUnderLifeguard(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	deadCh := make(chan string, 16)
	cluster := startUDPCluster(t, 4, func(cfg *lifeguard.Config) {
		cfg.Events = deadWatcher{ch: deadCh}
	})
	waitFor(t, 10*time.Second, func() bool {
		return cluster[0].node.NumAlive() == len(cluster)
	}, "convergence")

	// All members healthy: no dead events may appear during quiet
	// operation.
	select {
	case name := <-deadCh:
		t.Fatalf("healthy member %s declared dead", name)
	case <-time.After(3 * time.Second):
	}
}

type deadWatcher struct {
	lifeguard.NopEvents
	ch chan string
}

func (d deadWatcher) NotifyDead(m lifeguard.Member) {
	select {
	case d.ch <- m.Name:
	default:
	}
}
