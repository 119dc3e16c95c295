// Package lifeguard is a from-scratch implementation of SWIM group
// membership with the Lifeguard extensions — Local Health Aware Probe,
// Local Health Aware Suspicion and the Buddy System — as described in
// "Lifeguard: Local Health Awareness for More Accurate Failure
// Detection" (Dadgar, Phillips, Currey; DSN 2018).
//
// The protocol core is transport- and clock-agnostic: the same Node runs
// in real time over UDP/TCP (NewUDPTransport) and in virtual time on the
// bundled discrete-event simulator used by the paper's experiments (see
// internal/experiment and cmd/lifebench).
//
// # Quickstart
//
//	cfg := lifeguard.DefaultConfig("node-1")
//	tr, err := lifeguard.NewUDPTransport("127.0.0.1:7946")
//	// handle err
//	cfg.Transport = tr
//	node, err := lifeguard.NewNode(cfg)
//	// handle err
//	tr.Run(node.HandlePacket) // start delivering packets
//	node.Start()
//	node.Join("127.0.0.1:7947") // any existing member
//
// Membership changes arrive through Config.Events; the current view is
// available from Node.Members.
package lifeguard

import (
	"lifeguard/internal/core"
	"lifeguard/internal/nettrans"
	"lifeguard/internal/telemetry"
)

// Node is one group member. Create it with NewNode, start the protocol
// with Node.Start, and feed inbound packets to Node.HandlePacket. The
// zero value is not usable. See the core package for protocol details.
type Node = core.Node

// Config parameterizes a Node. The zero value is not usable: start
// from DefaultConfig (all Lifeguard components on) or SWIMConfig (the
// paper's baseline) and override fields; durations are wall-clock
// (virtual time under the simulator). NewNode fills in only Addr (the
// transport's address), Clock (the real clock) and RNG (time-seeded)
// when they are unset; a nil Events, Metrics or Telemetry observes
// nothing. Every other value comes from DefaultConfig or SWIMConfig,
// and a zero ProbeInterval or SuspicionAlpha is rejected, not
// defaulted.
type Config = core.Config

// Member is a snapshot of one member's entry in the membership view,
// valid as of the call that returned it (it does not track later
// state changes).
type Member = core.Member

// State is a member's liveness state. The zero value is invalid; real
// states start at StateAlive.
type State = core.State

// Member liveness states.
const (
	StateAlive   = core.StateAlive
	StateSuspect = core.StateSuspect
	StateDead    = core.StateDead
	StateLeft    = core.StateLeft
)

// EventDelegate receives membership change notifications.
type EventDelegate = core.EventDelegate

// NopEvents is an EventDelegate that ignores all notifications.
type NopEvents = core.NopEvents

// Transport moves packets between members.
//
// Payload lifetime contract (established in the zero-allocation send
// path rework): the payload slice passed to SendPacket is only valid
// for the duration of the call — the core reuses the underlying buffer
// for the next packet as soon as SendPacket returns. A Transport that
// delivers asynchronously (queues the packet, hands it to another
// goroutine, retains it for retry) MUST copy the payload before
// returning. The bundled transports comply: the simulator copies into
// a pooled buffer, and the UDP transport copies on its asynchronous
// TCP path. Symmetrically, the payload delivered to a packet handler
// is only valid for the duration of the handler call.
type Transport = core.Transport

// UDPTransport is the production transport: UDP datagrams with a TCP
// side channel for reliable traffic (push-pull anti-entropy and fallback
// probes).
type UDPTransport = nettrans.Transport

// DefaultConfig returns the paper's configuration with all Lifeguard
// components enabled (α = 5, β = 6, K = 3, S = 8).
func DefaultConfig(name string) *Config { return core.DefaultConfig(name) }

// SWIMConfig returns the paper's baseline configuration with all
// Lifeguard components disabled (fixed suspicion timeout, α = 5).
func SWIMConfig(name string) *Config { return core.SWIMConfig(name) }

// NewNode validates cfg and returns an unstarted Node.
func NewNode(cfg *Config) (*Node, error) { return core.New(cfg) }

// NewUDPTransport binds a UDP socket and TCP listener on bindAddr
// ("host:port"; port 0 picks a free port) and returns the transport.
// Call Run with the node's HandlePacket to start delivery, and Close on
// shutdown.
func NewUDPTransport(bindAddr string) (*UDPTransport, error) {
	return nettrans.New(bindAddr)
}

// TelemetryRecorder receives protocol observations — direct-ack RTTs,
// probe outcomes, Local Health Multiplier changes and suspicion
// lifecycle durations. Assign an implementation to Config.Telemetry to
// enable recording; the nil default disables it at zero cost.
// Implementations must be safe for concurrent use and must not feed
// back into the protocol (no RNG draws, timers or packets), so
// enabling telemetry never perturbs protocol behavior.
type TelemetryRecorder = telemetry.Recorder

// ProbeOutcome classifies how one probe round ended, as reported to
// TelemetryRecorder.RecordProbe.
type ProbeOutcome = telemetry.ProbeOutcome

// Probe round outcomes.
const (
	// OutcomeDirectAck is an ack on the direct UDP path (also yields an
	// RTT sample).
	OutcomeDirectAck = telemetry.OutcomeDirectAck

	// OutcomeIndirectAck is an ack that arrived via an indirect relay
	// or the TCP fallback after the direct path timed out.
	OutcomeIndirectAck = telemetry.OutcomeIndirectAck

	// OutcomeTimeout is a probe round that ended with no ack at all.
	OutcomeTimeout = telemetry.OutcomeTimeout
)

// NodeTelemetry is the bundled TelemetryRecorder: one entry per peer,
// holding its probe outcome counters and a ring of its latest RTTs, in
// a bounded table, plus RTT/suspicion histograms. Its Snapshot method
// backs the agent's /telemetry endpoint.
type NodeTelemetry = telemetry.NodeRecorder

// NodeTelemetryConfig is NewNodeTelemetry's argument. It has no fields:
// the recorder's sizes are fixed (the latest 128 RTTs per peer, 1024
// peers).
type NodeTelemetryConfig = telemetry.NodeConfig

// TelemetrySnapshot is a point-in-time copy of a NodeTelemetry: per-peer
// RTT percentiles and loss rates, histograms, and the peer table's
// occupancy.
type TelemetrySnapshot = telemetry.Snapshot

// NewNodeTelemetry returns an empty recorder, ready to assign to
// Config.Telemetry.
func NewNodeTelemetry(cfg NodeTelemetryConfig) (*NodeTelemetry, error) {
	return telemetry.NewNodeRecorder(cfg)
}
