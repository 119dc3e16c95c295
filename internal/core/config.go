package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"lifeguard/internal/metrics"
	"lifeguard/internal/telemetry"
	"lifeguard/internal/timeutil"
)

// Config parameterizes a Node. DefaultConfig returns the paper's
// memberlist defaults with all Lifeguard components enabled; SWIMConfig
// returns the paper's baseline (Table I, row "SWIM").
type Config struct {
	// Name is the member's unique name within the group.
	Name string

	// Addr is the member's transport address. Defaults to the
	// Transport's LocalAddr, which is the member's Name under the
	// simulator.
	Addr string

	// Transport delivers packets. Required.
	Transport Transport

	// Clock drives timers. Defaults to the real clock.
	Clock timeutil.Clock

	// RNG drives randomized peer selection. Defaults to a time-seeded
	// source; experiments inject seeded sources for determinism.
	RNG *rand.Rand

	// Events receives membership change notifications. Optional.
	Events EventDelegate

	// Metrics receives counters. Defaults to a no-op sink.
	Metrics metrics.Sink

	// Telemetry, when non-nil, receives protocol observations: direct-ack
	// round-trip times, probe round outcomes, Local Health Multiplier
	// score changes, and suspicion lifecycle durations. Nil — the default
	// — disables recording at zero cost: each hook is a single nil check
	// and the probe hot path stays allocation-free. Recording happens
	// under the node's lock and never draws from RNG or schedules clock
	// events, so enabling it does not perturb simulation determinism.
	Telemetry telemetry.Recorder

	// ProbeInterval is the base protocol period between liveness probes
	// (1 s in the paper). LHA-Probe scales it by (LHM+1).
	ProbeInterval time.Duration

	// ProbeTimeout is the base timeout for a direct probe's ack (500 ms
	// in the paper). LHA-Probe scales it by (LHM+1).
	ProbeTimeout time.Duration

	// SuspicionAlpha is α in Min = α·log10(n)·ProbeInterval (paper
	// §V-C). The SWIM baseline uses α = 5 with β = 1.
	SuspicionAlpha float64

	// SuspicionBeta is β in Max = β·Min. Only meaningful with
	// LHASuspicion; the effective β is 1 (fixed timeout) otherwise.
	SuspicionBeta float64

	// LHAProbe enables Local Health Aware Probe (§IV-A): the LHM
	// counter, nack requests, and dynamic probe interval/timeout.
	LHAProbe bool

	// LHASuspicion enables Local Health Aware Suspicion (§IV-B):
	// dynamic suspicion timeouts with confirmation-driven decay and
	// re-gossip of the first K independent suspicions.
	LHASuspicion bool

	// BuddySystem enables the Buddy System (§IV-C): pings to a suspected
	// member always carry the suspicion.
	BuddySystem bool

	// Blocked, when non-nil, reports whether the member's protocol
	// loops are currently stalled by an injected anomaly. The probe,
	// gossip and push-pull loops consult it and defer their work to the
	// next Wake call, modelling goroutines blocked on send (§V-D).
	// Production deployments leave it nil.
	Blocked func() bool
}

// memberlist's defaults, which the paper runs unchanged (§V-C varies
// only α, β and the Lifeguard components). Nothing sets a second
// value for any of them, so they are constants rather than Config
// fields (docs/ARCHITECTURE.md, Contracts). Packets are packed up to
// wire.MTU, and the reliable-channel direct probe of §III-B always goes
// out alongside the indirect ones.
const (
	// k, the number of members enlisted for indirect probes.
	indirectChecks = 3
	// λ, the gossip retransmission multiplier: each update's budget is
	// λ·⌈log10(n+1)⌉ transmissions.
	retransmitMult = 4
	// The dedicated gossip tick and its fanout.
	gossipInterval = 200 * time.Millisecond
	gossipNodes    = 3
	// How long after its death a member still receives gossip, so a
	// falsely declared member hears of it and can refute.
	gossipToTheDead = 30 * time.Second
	// The anti-entropy full state sync period.
	pushPullInterval = 30 * time.Second
	// How often a member attempts a push-pull with a random dead (not
	// left) member: the Serf-layer reconnect that lets partitioned
	// sub-groups re-merge once connectivity returns (§II).
	reconnectInterval = 30 * time.Second
	// Fraction of the probe timeout after which an indirect-probe relay
	// sends a nack.
	nackTimeoutFraction = 0.8
)

// tombstoneTTL is how long a dead or left record stays in the member
// table after its last state change; the next push-pull snapshot after
// that drops it. It is longer than memberlist's horizon
// (gossipToTheDead) so that reconnect ticks keep reaching the far side
// of a partition: a split up to tombstoneTTL − 2·reconnectInterval
// re-merges on its own (docs/ARCHITECTURE.md, Contracts).
const tombstoneTTL = 5 * time.Minute

// The paper's Lifeguard heuristics, which it fixes and leaves tuning to
// future work (§VII). Nothing sets a second value for either, so they
// are constants rather than Config fields (docs/ARCHITECTURE.md,
// Contracts).
const (
	// K, the number of independent suspicions that drive the suspicion
	// timeout from Max down to Min under LHA-Suspicion.
	suspicionK = 3
	// S, the Local Health Multiplier saturation limit.
	maxLHM = 8
)

// DefaultConfig returns the paper's configuration with all Lifeguard
// components enabled (Table I, row "Lifeguard"): α = 5, β = 6, with the
// constants K = 3 and S = 8.
func DefaultConfig(name string) *Config {
	return &Config{
		Name:           name,
		ProbeInterval:  time.Second,
		ProbeTimeout:   500 * time.Millisecond,
		SuspicionAlpha: 5,
		SuspicionBeta:  6,
		LHAProbe:       true,
		LHASuspicion:   true,
		BuddySystem:    true,
	}
}

// SWIMConfig returns the paper's baseline configuration (Table I, row
// "SWIM"): all Lifeguard components disabled and the fixed suspicion
// timeout equivalent to α = 5, β = 1.
func SWIMConfig(name string) *Config {
	cfg := DefaultConfig(name)
	cfg.LHAProbe = false
	cfg.LHASuspicion = false
	cfg.BuddySystem = false
	cfg.SuspicionBeta = 1
	return cfg
}

// validate normalizes defaults and rejects unusable configurations.
func (c *Config) validate() error {
	if c.Name == "" {
		return errors.New("core: config requires a Name")
	}
	if c.Transport == nil {
		return errors.New("core: config requires a Transport")
	}
	if c.Addr == "" {
		c.Addr = c.Transport.LocalAddr()
	}
	if c.Clock == nil {
		c.Clock = timeutil.RealClock{}
	}
	if c.RNG == nil {
		c.RNG = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NopSink{}
	}
	if c.ProbeInterval <= 0 || c.ProbeTimeout <= 0 {
		return fmt.Errorf("core: probe interval (%v) and timeout (%v) must be positive", c.ProbeInterval, c.ProbeTimeout)
	}
	if c.ProbeTimeout > c.ProbeInterval {
		return fmt.Errorf("core: probe timeout (%v) exceeds probe interval (%v)", c.ProbeTimeout, c.ProbeInterval)
	}
	// NaN passes every comparison and +Inf overflows the suspicion
	// timeout's conversion to a Duration, so both are rejected too.
	if c.SuspicionAlpha <= 0 || !isFinite(c.SuspicionAlpha) {
		return errors.New("core: SuspicionAlpha must be positive and finite")
	}
	if c.SuspicionBeta < 1 || !isFinite(c.SuspicionBeta) {
		return errors.New("core: SuspicionBeta must be finite and at least 1")
	}
	return nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// SuspicionMin returns Min = α·max(1, log10(n))·probeInterval, the floor
// of the suspicion timeout for a cluster of n members (paper §V-C,
// following memberlist's formula, which clamps log10(n) below at 1).
func SuspicionMin(alpha float64, n int, probeInterval time.Duration) time.Duration {
	if n < 1 {
		n = 1
	}
	nodeScale := math.Max(1, math.Log10(float64(n)))
	return time.Duration(alpha * nodeScale * float64(probeInterval))
}
