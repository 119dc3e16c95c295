//go:build e2e

package e2e

import (
	"fmt"
	"testing"
)

// coordsView is the /coords response shape the matrix asserts on.
type coordsView struct {
	Enabled bool `json:"enabled"`
	Self    *struct {
		Vec []float64 `json:"vec"`
	} `json:"self"`
	Peers []struct {
		Name     string  `json:"name"`
		EstRTTMs float64 `json:"est_rtt_ms"`
	} `json:"peers"`
}

// TestE2ECompatMatrix runs the mixed-version wire-compatibility matrix
// over real processes: agents with the Vivaldi coordinate extension
// disabled (-disable-coords — the pre-coordinate wire format) and
// coord-enabled agents share one mesh, in both seed directions. The
// PR-2 contract, pinned until now only in codec unit tests, must hold
// end to end: coordless encodings decode on new agents, new agents'
// trailing coordinate blocks are skipped by coordless decoders, the
// mixed cluster converges with zero false positives, the coord-enabled
// pair still builds RTT estimates of each other, and a crash is
// detected across the version boundary.
func TestE2ECompatMatrix(t *testing.T) {
	directions := []struct {
		name      string
		coordless map[int]bool // agent index → runs -disable-coords
		crash     int          // index of the agent to SIGKILL at the end
	}{
		// Old-wire seed: every coord-enabled joiner handshakes with a
		// coordless first contact; the crashed member is coordless, so
		// its death is detected by new-wire observers.
		{name: "coordless-seed", coordless: map[int]bool{0: true, 3: true}, crash: 3},
		// New-wire seed: coordless joiners handshake with a
		// coord-enabled first contact; the crashed member is
		// coord-enabled, so its death is detected by old-wire observers.
		{name: "coord-seed", coordless: map[int]bool{1: true, 3: true}, crash: 2},
	}
	for _, dir := range directions {
		dir := dir
		t.Run(dir.name, func(t *testing.T) {
			c := StartCluster(t, 4, func(i int) []string {
				if dir.coordless[i] {
					return []string{"-disable-coords"}
				}
				return nil
			})
			c.WaitConverged(t, convergeBudget, nil)

			var coordEnabled []*Agent
			for i, a := range c.Agents {
				var view coordsView
				if err := a.getJSON("/coords", &view); err != nil {
					t.Fatalf("agent %s: %v", a.Name, err)
				}
				if wantless := dir.coordless[i]; view.Enabled == wantless {
					t.Fatalf("agent %s: /coords enabled=%v, want %v", a.Name, view.Enabled, !wantless)
				}
				if dir.coordless[i] && view.Self != nil {
					t.Errorf("agent %s: coordless agent reports a self coordinate", a.Name)
				}
				if !dir.coordless[i] {
					coordEnabled = append(coordEnabled, a)
				}
			}

			// The two coord-enabled agents exchange coordinates on their
			// Ping/Ack traffic even though half the mesh speaks the old
			// wire format; each must converge to an RTT estimate of the
			// other (Vivaldi needs core's coordMinSamples, 8, direct acks
			// to warm).
			waitUntil(t, convergeBudget, "coord-enabled pair RTT estimates", func() error {
				for i, a := range coordEnabled {
					other := coordEnabled[1-i]
					var view coordsView
					if err := a.getJSON("/coords", &view); err != nil {
						return err
					}
					found := false
					for _, p := range view.Peers {
						if p.Name == other.Name {
							if p.EstRTTMs < 0 {
								return fmt.Errorf("agent %s estimates negative RTT to %s", a.Name, other.Name)
							}
							found = true
						}
					}
					if !found {
						return fmt.Errorf("agent %s has no RTT estimate for %s yet", a.Name, other.Name)
					}
				}
				return nil
			})

			// Cross-version failure detection: the crash must be seen by
			// every survivor on both sides of the wire boundary, with
			// zero false positives among the live members.
			victim := c.Agents[dir.crash]
			c.MarkGone(victim)
			victim.Kill(t)
			c.WaitConverged(t, detectBudget, map[string]string{victim.Name: "dead"})
		})
	}
}
