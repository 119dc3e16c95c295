// Package coords implements Vivaldi network coordinates (Dabek,
// Cox, Kaashoek, Morris; SIGCOMM 2004), the decentralized RTT
// estimation scheme Serf layers on memberlist. Each member maintains a
// point in a low-dimensional Euclidean space augmented with a height
// (modelling the access-link delay that no Euclidean embedding can
// capture); the distance between two members' coordinates predicts the
// round-trip time between them.
//
// The Client is the per-node engine: every observed probe round-trip
// (peer coordinate + measured RTT) applies a spring force that pulls
// the local coordinate toward a configuration where coordinate
// distances match measured RTTs. A median latency filter suppresses
// RTT outliers, an adjustment window absorbs the residual systematic
// error, and a weak gravity force pulls coordinates toward the origin
// so the whole coordinate system does not drift.
//
// All distances and forces are computed in seconds; conversions to
// time.Duration happen only at the API boundary.
//
// No protocol path uses this package: pings and acks carry no
// coordinate, and no package of the main module imports it (CI step
// "coords import fence"). Its one importer is the benchmark module
// (benchmark/kernels.go), whose coords.update_ns and coords.nearest_ns
// kernels time it; the package goes when those kernels move (ROADMAP
// item 18).
package coords

import (
	"fmt"
	"math"
	"time"
)

// zeroThreshold guards divisions: distances and errors below it are
// treated as zero.
const zeroThreshold = 1.0e-6

// Coordinate is one point in the Vivaldi coordinate space. Coordinates
// travel on the wire (piggybacked on Ping/Ack), so the struct is pure
// data; the update algorithm lives in Client.
type Coordinate struct {
	// Vec is the Euclidean component, in seconds.
	Vec []float64

	// Error is the node's confidence in its own coordinate (lower is
	// better). It weights updates: a node with a poor coordinate moves
	// readily toward a confident peer, and barely at all the other way.
	Error float64

	// Adjustment is a locally-tracked additive correction, in seconds,
	// absorbing the systematic error the Euclidean+height model cannot
	// express (Vivaldi §3.4's adjustment term).
	Adjustment float64

	// Height is the non-Euclidean component, in seconds: the member's
	// access-link delay, paid on every path regardless of direction.
	Height float64
}

// NewCoordinate returns an origin coordinate: zero vector, minimum
// height, maximum error. cfg is unused (every engine shares one
// tuning); the signature is the one its callers were written against,
// the benchmark module's kernels among them.
func NewCoordinate(cfg *Config) *Coordinate {
	return &Coordinate{
		Vec:    make([]float64, dimensionality),
		Error:  vivaldiErrorMax,
		Height: heightMin,
	}
}

// Clone returns a deep copy.
func (c *Coordinate) Clone() *Coordinate {
	vec := make([]float64, len(c.Vec))
	copy(vec, c.Vec)
	return &Coordinate{Vec: vec, Error: c.Error, Adjustment: c.Adjustment, Height: c.Height}
}

// IsValid reports whether every component is a finite number. Wire
// decoding accepts arbitrary bit patterns; the engine rejects invalid
// coordinates before they can poison the local state.
func (c *Coordinate) IsValid() bool {
	for _, v := range c.Vec {
		if !isFinite(v) {
			return false
		}
	}
	return isFinite(c.Error) && isFinite(c.Adjustment) && isFinite(c.Height)
}

func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// IsCompatibleWith reports whether the two coordinates live in the same
// space and can be compared.
func (c *Coordinate) IsCompatibleWith(other *Coordinate) bool {
	return len(c.Vec) == len(other.Vec)
}

// DistanceTo returns the estimated RTT between the two coordinates.
// Incompatible coordinates yield 0.
func (c *Coordinate) DistanceTo(other *Coordinate) time.Duration {
	if !c.IsCompatibleWith(other) {
		return 0
	}
	dist := c.rawDistanceTo(other)
	if adjusted := dist + c.Adjustment + other.Adjustment; adjusted > 0 {
		dist = adjusted
	}
	return time.Duration(dist * float64(time.Second))
}

// rawDistanceTo is the model distance in seconds, without the
// adjustment terms: Euclidean distance plus both heights.
func (c *Coordinate) rawDistanceTo(other *Coordinate) float64 {
	return distance(c.Vec, other.Vec) + c.Height + other.Height
}

// applyForce adjusts the coordinate in place by a force of the given
// magnitude (seconds) directed away from other (negative values pull
// toward it). When the two points coincide, a deterministic
// pseudo-random unit vector from rnd breaks the tie. scratch must have
// the coordinate's dimensionality; it is overwritten. The engine calls
// this twice per observation, so an allocating version (clone, then
// fresh diff/mul/add vectors) was a steady-state cost; the arithmetic
// is element-for-element the same as the allocating chain, keeping
// same-seed runs bit-identical.
func (c *Coordinate) applyForce(force float64, other *Coordinate, rnd func() float64, scratch []float64) {
	mag := unitVectorInto(scratch, c.Vec, other.Vec, rnd)
	for i := range c.Vec {
		c.Vec[i] += scratch[i] * force
	}
	if mag > zeroThreshold {
		c.Height = (c.Height+other.Height)*force/mag + c.Height
		c.Height = math.Max(c.Height, heightMin)
	}
}

// String renders the coordinate compactly for logs.
func (c *Coordinate) String() string {
	return fmt.Sprintf("coords{vec=%v err=%.3f adj=%.6f h=%.6f}", c.Vec, c.Error, c.Adjustment, c.Height)
}

// Vector helpers. All operate on equal-length slices.

func magnitude(a []float64) float64 {
	sum := 0.0
	for _, v := range a {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// distance is magnitude(diff(a, b)) without materialising the
// difference vector. Every RTT estimate goes through it — gossip
// ranking calls DistanceTo once per candidate per tick, so the
// intermediate slice was a steady-state allocation.
func distance(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// unitVectorInto fills out with the unit vector pointing from b toward
// a and returns the distance between the points. Coincident points get
// a random unit vector so springs can push them apart in a consistent
// direction.
func unitVectorInto(out, a, b []float64, rnd func() float64) float64 {
	for i := range out {
		out[i] = a[i] - b[i]
	}
	if mag := magnitude(out); mag > zeroThreshold {
		f := 1.0 / mag
		for i := range out {
			out[i] *= f
		}
		return mag
	}
	for i := range out {
		out[i] = rnd() - 0.5
	}
	if mag := magnitude(out); mag > zeroThreshold {
		f := 1.0 / mag
		for i := range out {
			out[i] *= f
		}
		return 0.0
	}
	// The random draw itself landed on the origin; fall back to an axis.
	for i := range out {
		out[i] = 0
	}
	if len(out) > 0 {
		out[0] = 1.0
	}
	return 0.0
}
