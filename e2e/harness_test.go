//go:build e2e

package e2e

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// soakFor is the -e2e.soak flag: how long TestE2ESoak churns the
// cluster. The zero default skips the soak entirely, so the flag is an
// explicit opt-in (CI runs it in the nightly-style job).
var soakFor = flag.Duration("e2e.soak", 0, "run the soak suite for this long (0 = skip)")

// agentBin is the lifeguard-agent binary built once in TestMain and
// shared by every test in the package.
var agentBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "lifeguard-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e: mkdtemp:", err)
		os.Exit(1)
	}
	agentBin = filepath.Join(dir, "lifeguard-agent")
	build := exec.Command("go", "build", "-o", agentBin, "lifeguard/cmd/lifeguard-agent")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: building agent: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// Budgets for poll-until-deadline waits. They are deliberately generous
// — on loopback the events land in low single-digit seconds, but the
// suite must stay green under -race on loaded CI runners. A budget is a
// deadline, never a sleep: tests proceed the moment the condition
// holds.
const (
	readyBudget    = 20 * time.Second // process start → addresses logged
	convergeBudget = 30 * time.Second // full-mesh membership agreement
	detectBudget   = 20 * time.Second // SIGKILL → every survivor sees dead
	leaveBudget    = 20 * time.Second // SIGTERM → every survivor sees left
	exitBudget     = 15 * time.Second // signal → process exit
	pollEvery      = 100 * time.Millisecond
)

var (
	opsAddrRe    = regexp.MustCompile(`ops server on http://(\S+)`)
	gossipAddrRe = regexp.MustCompile(`listening on (\S+) \(`)
)

// Agent is one spawned lifeguard-agent process and its captured log.
type Agent struct {
	Name       string
	Args       []string // full argv (without the binary path)
	GossipAddr string   // bound UDP/TCP address, parsed from the log
	OpsURL     string   // "http://host:port" of the ops server

	cmd     *exec.Cmd
	waitCh  chan error
	started time.Time // when the process was spawned

	mu      sync.Mutex
	logBuf  bytes.Buffer
	exited  bool
	exitErr error
}

// Write captures process output (stdout and stderr share the buffer);
// exec.Cmd writes from its copy goroutines, hence the lock.
func (a *Agent) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.logBuf.Write(p)
}

// Log returns a copy of everything the agent has printed so far.
func (a *Agent) Log() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.logBuf.String()
}

// startAgentProcess spawns the agent binary with the given argv and
// starts capturing its output. It does not wait for readiness.
func startAgentProcess(t *testing.T, name string, args []string) *Agent {
	t.Helper()
	a := &Agent{Name: name, Args: args, waitCh: make(chan error, 1), started: time.Now()}
	a.cmd = exec.Command(agentBin, args...)
	a.cmd.Stdout = a
	a.cmd.Stderr = a
	if err := a.cmd.Start(); err != nil {
		t.Fatalf("starting agent %s: %v", name, err)
	}
	go func() { a.waitCh <- a.cmd.Wait() }()
	t.Cleanup(func() {
		if _, running := a.ExitCode(); running {
			a.cmd.Process.Kill()
			a.WaitExit(t, exitBudget)
		}
	})
	return a
}

// ExitCode returns the process's exit code and whether it is still
// running. It never blocks.
func (a *Agent) ExitCode() (code int, running bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.exited {
		return exitCodeOf(a.exitErr), false
	}
	select {
	case err := <-a.waitCh:
		a.exited, a.exitErr = true, err
		return exitCodeOf(err), false
	default:
		return 0, true
	}
}

func exitCodeOf(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// WaitExit blocks until the process exits (or the budget lapses) and
// returns its exit code.
func (a *Agent) WaitExit(t *testing.T, timeout time.Duration) int {
	t.Helper()
	a.mu.Lock()
	if a.exited {
		defer a.mu.Unlock()
		return exitCodeOf(a.exitErr)
	}
	a.mu.Unlock()
	select {
	case err := <-a.waitCh:
		a.mu.Lock()
		a.exited, a.exitErr = true, err
		a.mu.Unlock()
		return exitCodeOf(err)
	case <-time.After(timeout):
		t.Fatalf("agent %s did not exit within %v\n%s", a.Name, timeout, a.Log())
		return -1
	}
}

// Signal delivers sig to the agent process.
func (a *Agent) Signal(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if err := a.cmd.Process.Signal(sig); err != nil {
		t.Fatalf("signaling agent %s with %v: %v", a.Name, sig, err)
	}
}

// Kill SIGKILLs the agent — the ungraceful death the failure detector
// must notice — and reaps the process.
func (a *Agent) Kill(t *testing.T) {
	t.Helper()
	if err := a.cmd.Process.Kill(); err != nil {
		t.Fatalf("killing agent %s: %v", a.Name, err)
	}
	a.WaitExit(t, exitBudget)
}

// waitReady polls the agent log until both startup lines have appeared
// (the startup logging contract in cmd/lifeguard-agent) and records the
// parsed addresses.
func (a *Agent) waitReady(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(readyBudget)
	for time.Now().Before(deadline) {
		log := a.Log()
		ops := opsAddrRe.FindStringSubmatch(log)
		gossip := gossipAddrRe.FindStringSubmatch(log)
		if ops != nil && gossip != nil {
			a.OpsURL = "http://" + ops[1]
			a.GossipAddr = gossip[1]
			return
		}
		if _, running := a.ExitCode(); !running {
			t.Fatalf("agent %s exited during startup\nargs: %q\n%s", a.Name, a.Args, log)
		}
		time.Sleep(pollEvery)
	}
	t.Fatalf("agent %s never logged its addresses\nargs: %q\n%s", a.Name, a.Args, a.Log())
}

// getJSON fetches an ops endpoint and decodes the JSON body into v.
func (a *Agent) getJSON(path string, v any) error {
	resp, err := http.Get(a.OpsURL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s%s: status %d", a.OpsURL, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// memberInfo is one row of an agent's /members view.
type memberInfo struct {
	Addr        string `json:"addr"`
	State       string `json:"state"`
	Incarnation uint64 `json:"incarnation"`
}

// Members returns the agent's current membership view keyed by name.
func (a *Agent) Members() (map[string]memberInfo, error) {
	var resp struct {
		Members []struct {
			Name string `json:"name"`
			memberInfo
		} `json:"members"`
	}
	if err := a.getJSON("/members", &resp); err != nil {
		return nil, err
	}
	out := make(map[string]memberInfo, len(resp.Members))
	for _, m := range resp.Members {
		out[m.Name] = m.memberInfo
	}
	return out, nil
}

// Metrics scrapes /metrics and returns every unlabeled sample as
// name → value (histogram bucket lines carry labels and are skipped —
// their _count/_sum aggregates come through unlabeled).
func (a *Agent) Metrics() (map[string]float64, error) {
	resp, err := http.Get(a.OpsURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("unparsable metrics line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = f
	}
	return out, nil
}

// Cluster is a set of agent processes forming one gossip mesh on
// loopback, plus the bookkeeping to know who is supposed to be alive.
type Cluster struct {
	t      *testing.T
	Agents []*Agent             // every agent ever started, including stopped ones
	gone   map[string]time.Time // deliberately stopped agents, by name: when
	seq    int
}

// defaultAgentArgs is the tuning shared by every harness agent: tight
// probe timings so detection budgets stay small on loopback, membership
// summaries for post-mortem logs, and a bounded leave drain.
func defaultAgentArgs(name string) []string {
	return []string{
		"-name", name,
		"-bind", "127.0.0.1:0",
		"-http", "127.0.0.1:0",
		"-probe-interval", "200ms",
		"-probe-timeout", "100ms",
		"-print-members", "2s",
		"-leave-timeout", "5s",
	}
}

// StartCluster spawns n agents (n ≥ 1): one seed plus n-1 joiners, with
// extraArgs(i) appended to agent i's argv, and waits for every agent to
// log its addresses. It does NOT wait for membership convergence — call
// WaitConverged for that.
func StartCluster(t *testing.T, n int, extraArgs func(i int) []string) *Cluster {
	t.Helper()
	c := &Cluster{t: t, gone: make(map[string]time.Time)}
	t.Cleanup(c.dumpOnFailure)
	for i := 0; i < n; i++ {
		var extra []string
		if extraArgs != nil {
			extra = extraArgs(i)
		}
		c.StartAgent(extra...)
	}
	return c
}

// StartAgent adds one more agent to the cluster (joining via the seed
// unless this is the first agent) and waits for its addresses.
func (c *Cluster) StartAgent(extra ...string) *Agent {
	c.t.Helper()
	name := fmt.Sprintf("n%d", c.seq)
	c.seq++
	args := defaultAgentArgs(name)
	if len(c.Agents) > 0 {
		args = append(args, "-join", c.Agents[0].GossipAddr)
	}
	args = append(args, extra...)
	a := startAgentProcess(c.t, name, args)
	a.waitReady(c.t)
	c.Agents = append(c.Agents, a)
	return a
}

// Restart spawns a fresh process under an existing agent's name (the
// rejoin-after-crash path: same identity, new ephemeral address).
func (c *Cluster) Restart(t *testing.T, name string, extra ...string) *Agent {
	t.Helper()
	args := defaultAgentArgs(name)
	args = append(args, "-join", c.Agents[0].GossipAddr)
	args = append(args, extra...)
	a := startAgentProcess(t, name, args)
	a.waitReady(t)
	c.Agents = append(c.Agents, a)
	delete(c.gone, name)
	return a
}

// MarkGone records that an agent was deliberately stopped, so Live and
// the convergence helpers stop expecting it.
func (c *Cluster) MarkGone(a *Agent) { c.gone[a.Name] = time.Now() }

// Live returns the agents currently expected to be up, newest instance
// winning when a name was restarted.
func (c *Cluster) Live() []*Agent {
	latest := make(map[string]*Agent)
	for _, a := range c.Agents {
		latest[a.Name] = a
	}
	var out []*Agent
	for name, a := range latest {
		if _, gone := c.gone[name]; !gone {
			out = append(out, a)
		}
	}
	return out
}

// dumpOnFailure writes every agent's argv, addresses and full log when
// the test failed — to the test log always, and as files under
// $E2E_ARTIFACT_DIR when set (CI uploads that directory), so any flake
// is reproducible from the artifacts alone.
func (c *Cluster) dumpOnFailure() {
	if !c.t.Failed() {
		return
	}
	dir := os.Getenv("E2E_ARTIFACT_DIR")
	if dir != "" {
		os.MkdirAll(dir, 0o755)
	}
	for _, a := range c.Agents {
		code, running := a.ExitCode()
		status := "running"
		if !running {
			status = fmt.Sprintf("exited %d", code)
		}
		c.t.Logf("agent %s [%s]: gossip=%s ops=%s argv=%q",
			a.Name, status, a.GossipAddr, a.OpsURL, a.Args)
		if dir == "" {
			c.t.Logf("agent %s log:\n%s", a.Name, a.Log())
			continue
		}
		fname := filepath.Join(dir, sanitize(c.t.Name())+"-"+a.Name+".log")
		header := fmt.Sprintf("# argv: %q\n# gossip: %s ops: %s status: %s\n", a.Args, a.GossipAddr, a.OpsURL, status)
		if err := os.WriteFile(fname, []byte(header+a.Log()), 0o644); err != nil {
			c.t.Logf("writing %s: %v", fname, err)
		} else {
			c.t.Logf("agent %s log written to %s", a.Name, fname)
		}
	}
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// waitUntil polls cond every pollEvery until it returns nil, failing
// the test with the last error when the budget lapses. This is the only
// wait primitive in the harness — the flake policy in docs/E2E.md.
func waitUntil(t *testing.T, timeout time.Duration, desc string, cond func() error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		if last = cond(); last == nil {
			return
		}
		time.Sleep(pollEvery)
	}
	t.Fatalf("timed out after %v waiting for %s: %v", timeout, desc, last)
}

// viewConsistent checks one agent's /members view against the cluster's
// expectations: every live agent alive, every named departed agent in
// wantGone's state, and — the zero-false-positive invariant — no live
// agent ever reported dead or left. An agent started after a member
// departed may hold no entry for it: members are learned only from
// alive news, so a newcomer never learns one that was already gone.
func (c *Cluster) viewConsistent(a *Agent, wantGone map[string]string) error {
	view, err := a.Members()
	if err != nil {
		return fmt.Errorf("agent %s: %w", a.Name, err)
	}
	live := c.Live()
	for _, peer := range live {
		m, ok := view[peer.Name]
		if !ok {
			return fmt.Errorf("agent %s does not know live member %s", a.Name, peer.Name)
		}
		if m.State == "dead" || m.State == "left" {
			// A live member observed dead/left is a false positive —
			// fail immediately and loudly rather than waiting out the
			// budget.
			c.t.Fatalf("FALSE POSITIVE: agent %s sees live member %s as %s (inc=%d)\n%s",
				a.Name, peer.Name, m.State, m.Incarnation, a.Log())
		}
		if m.State != "alive" {
			return fmt.Errorf("agent %s sees %s as %s, want alive", a.Name, peer.Name, m.State)
		}
	}
	for name, wantState := range wantGone {
		m, ok := view[name]
		if !ok {
			if a.started.After(c.gone[name]) {
				continue
			}
			return fmt.Errorf("agent %s has no entry for departed member %s", a.Name, name)
		}
		if m.State != wantState {
			return fmt.Errorf("agent %s sees departed %s as %s, want %s", a.Name, name, m.State, wantState)
		}
	}
	return nil
}

// WaitConverged blocks until every live agent's view lists every live
// agent as alive (and every entry in wantGone at its expected terminal
// state), failing on any false positive along the way.
func (c *Cluster) WaitConverged(t *testing.T, timeout time.Duration, wantGone map[string]string) {
	t.Helper()
	waitUntil(t, timeout, fmt.Sprintf("convergence of %d live agents (gone: %v)", len(c.Live()), wantGone), func() error {
		for _, a := range c.Live() {
			if err := c.viewConsistent(a, wantGone); err != nil {
				return err
			}
		}
		return nil
	})
}
