package core

import (
	"lifeguard/internal/wire"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// nopTransport satisfies Transport for validation tests.
type nopTransport struct{}

func (nopTransport) LocalAddr() string                     { return "nop" }
func (nopTransport) SendPacket(string, []byte, bool) error { return nil }

func validConfig() *Config {
	cfg := DefaultConfig("n1")
	cfg.Transport = nopTransport{}
	return cfg
}

func TestNewRejectsNilConfig(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil config accepted")
	}
}

func TestConfigValidationTable(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"valid", func(c *Config) {}, ""},
		{"missing name", func(c *Config) { c.Name = "" }, "Name"},
		{"missing transport", func(c *Config) { c.Transport = nil }, "Transport"},
		{"zero probe interval", func(c *Config) { c.ProbeInterval = 0 }, "probe"},
		{"zero probe timeout", func(c *Config) { c.ProbeTimeout = 0 }, "probe"},
		{"negative probe timeout", func(c *Config) { c.ProbeTimeout = -time.Second }, "probe"},
		{"timeout equals interval", func(c *Config) { c.ProbeTimeout = c.ProbeInterval }, ""},
		{"timeout exceeds interval", func(c *Config) { c.ProbeTimeout = 2 * c.ProbeInterval }, "exceeds"},
		{"zero alpha", func(c *Config) { c.SuspicionAlpha = 0 }, "SuspicionAlpha"},
		{"beta below one", func(c *Config) { c.SuspicionBeta = 0.5 }, "SuspicionBeta"},
		{"beta exactly one", func(c *Config) { c.SuspicionBeta = 1 }, ""},
		{"NaN alpha", func(c *Config) { c.SuspicionAlpha = math.NaN() }, "SuspicionAlpha"},
		{"infinite alpha", func(c *Config) { c.SuspicionAlpha = math.Inf(1) }, "SuspicionAlpha"},
		{"NaN beta", func(c *Config) { c.SuspicionBeta = math.NaN() }, "SuspicionBeta"},
		{"infinite beta", func(c *Config) { c.SuspicionBeta = math.Inf(1) }, "SuspicionBeta"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := validConfig()
			c.mutate(cfg)
			_, err := New(cfg)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestConfigSurface pins Config's field set: every field is an option
// tests and benchmarks must cover, so one is added only with a caller.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"Name", "Addr", "Transport", "Clock", "RNG", "Events", "Metrics", "Telemetry",
		"ProbeInterval", "ProbeTimeout", "SuspicionAlpha", "SuspicionBeta",
		"LHAProbe", "LHASuspicion", "BuddySystem", "Blocked",
	}
	typ := reflect.TypeOf(Config{})
	got := make([]string, typ.NumField())
	for i := range got {
		got[i] = typ.Field(i).Name
	}
	if !slices.Equal(got, want) {
		t.Fatalf("a new Config field needs a non-test caller that sets it (docs/ARCHITECTURE.md, Contracts)\n got %d: %v\nwant %d: %v",
			len(got), got, len(want), want)
	}
}

func TestValidateFillsDefaults(t *testing.T) {
	cfg := validConfig()
	node, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := node.Config()
	if got.Clock == nil || got.RNG == nil || got.Metrics == nil {
		t.Error("defaults not filled")
	}
	if got.Addr != "nop" {
		t.Errorf("addr = %q, want transport's LocalAddr", got.Addr)
	}
}

func TestNewCopiesConfig(t *testing.T) {
	cfg := validConfig()
	node, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SuspicionAlpha = 99 // caller mutation after New must not leak in
	if got := node.Config().SuspicionAlpha; got == 99 {
		t.Error("node aliases the caller's config")
	}
}

// TestDefaultConfigMatchesPaper pins the paper's Lifeguard row and the
// memberlist defaults it runs unchanged, fields and constants alike, so
// a later edit to any of them has to be deliberate.
func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig("x")
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"ProbeInterval", cfg.ProbeInterval, time.Second},
		{"ProbeTimeout", cfg.ProbeTimeout, 500 * time.Millisecond},
		{"SuspicionAlpha", cfg.SuspicionAlpha, 5.0},
		{"SuspicionBeta", cfg.SuspicionBeta, 6.0},
		{"LHAProbe", cfg.LHAProbe, true},
		{"LHASuspicion", cfg.LHASuspicion, true},
		{"BuddySystem", cfg.BuddySystem, true},
		{"suspicionK (K)", suspicionK, 3},
		{"maxLHM (S)", maxLHM, 8},
		{"indirectChecks (k)", indirectChecks, 3},
		{"retransmitMult (λ)", retransmitMult, 4},
		{"gossipInterval", gossipInterval, 200 * time.Millisecond},
		{"gossipNodes", gossipNodes, 3},
		{"gossipToTheDead", gossipToTheDead, 30 * time.Second},
		{"pushPullInterval", pushPullInterval, 30 * time.Second},
		{"reconnectInterval", reconnectInterval, 30 * time.Second},
		{"nackTimeoutFraction", nackTimeoutFraction, 0.8},
		{"wire.MTU", wire.MTU, 1400},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestSWIMConfigDisablesLifeguard(t *testing.T) {
	cfg := SWIMConfig("x")
	if cfg.LHAProbe || cfg.LHASuspicion || cfg.BuddySystem {
		t.Error("SWIM config has Lifeguard components enabled")
	}
	if cfg.SuspicionBeta != 1 {
		t.Errorf("beta = %v, want 1 (fixed timeout)", cfg.SuspicionBeta)
	}
}

func TestSuspicionMin(t *testing.T) {
	cases := []struct {
		alpha float64
		n     int
		want  time.Duration
	}{
		// Paper's cluster: α=5, n=128 → 5·log10(128)·1s ≈ 10.536s.
		{5, 128, time.Duration(5 * math.Log10(128) * float64(time.Second))},
		// Small clusters clamp log10(n) at 1 (memberlist behaviour).
		{5, 2, 5 * time.Second},
		{5, 10, 5 * time.Second},
		{2, 100, 4 * time.Second},
		// Degenerate n.
		{5, 0, 5 * time.Second},
		{5, -3, 5 * time.Second},
	}
	for _, c := range cases {
		got := SuspicionMin(c.alpha, c.n, time.Second)
		if d := got - c.want; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("SuspicionMin(%v, %d) = %v, want %v", c.alpha, c.n, got, c.want)
		}
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		StateAlive:   "alive",
		StateSuspect: "suspect",
		StateDead:    "dead",
		StateLeft:    "left",
		State(9):     "unknown",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestStartTwiceFails(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.node.Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
}

func TestShutdownIsIdempotentAndStopsActivity(t *testing.T) {
	h := newHarness(t, nil)
	h.addMember("m1", 1)
	h.node.Shutdown()
	h.node.Shutdown() // no panic
	h.clearSent()
	h.run(time.Minute)
	if len(h.sent) != 0 {
		t.Errorf("%d packets sent after shutdown", len(h.sent))
	}
	// Inbound traffic is ignored after shutdown.
	h.inject("x", &wire.Alive{Incarnation: 1, Node: "m9", Addr: "m9"})
	if _, ok := h.node.Member("m9"); ok {
		t.Error("message processed after shutdown")
	}
}

func TestJoinRequiresRunningNode(t *testing.T) {
	cfg := validConfig()
	node, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Join("elsewhere"); err == nil {
		t.Error("Join before Start succeeded")
	}
	node.Shutdown()
}

func TestNopEventsImplementsDelegate(t *testing.T) {
	var d EventDelegate = NopEvents{}
	// Must simply not panic.
	d.NotifyJoin(Member{})
	d.NotifySuspect(Member{})
	d.NotifyAlive(Member{})
	d.NotifyDead(Member{})
}
