package coords

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Operations the differential test applies to both engines.
const (
	opWitness = iota
	opObserve
	opObserveAgain // weights the mix toward probes, as in a cluster
	opForget
	numOps
)

// clientOracle drives a Client and the seed engine with the same
// operations and compares everything either one can be asked.
type clientOracle struct {
	got   *Client
	want  *seedClient
	names []string
	dim   int
	max   time.Duration

	gotOut, wantOut []int

	// applied counts the observations both engines accepted.
	applied int
}

func newClientOracle(t testing.TB, seed int64, peers int) *clientOracle {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Rand = rand.New(rand.NewSource(seed)).Float64
	got, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedCfg := seedDefaultConfig(rand.New(rand.NewSource(seed)).Float64)
	o := &clientOracle{got: got, want: newSeedClient(seedCfg), dim: seedCfg.Dimensionality, max: seedCfg.MaxRTT}
	for i := 0; i < peers; i++ {
		o.names = append(o.names, fmt.Sprintf("peer-%02d", i))
	}
	return o
}

// coordinate draws a peer coordinate: valid, or for kinds 0–3 one of
// the inputs the engine must reject — a NaN or infinite component, the
// wrong dimensionality, nil.
func (o *clientOracle) coordinate(rng *rand.Rand, kind int) *Coordinate {
	co := &Coordinate{
		Vec:        make([]float64, o.dim),
		Error:      0.05 + 1.45*rng.Float64(),
		Adjustment: (rng.Float64() - 0.5) * 1e-3,
		Height:     1e-5 + 1e-2*rng.Float64(),
	}
	for i := range co.Vec {
		co.Vec[i] = (rng.Float64() - 0.5) * 0.1
	}
	switch kind {
	case 0:
		co.Vec[rng.Intn(o.dim)] = math.NaN()
	case 1:
		co.Height = math.Inf(1)
	case 2:
		co.Vec = co.Vec[:o.dim-1]
	case 3:
		return nil
	}
	return co
}

// rtt draws a round-trip time in range, or for kinds 0–3 a boundary:
// zero, negative, over MaxRTT (all rejected), exactly MaxRTT.
func (o *clientOracle) rtt(rng *rand.Rand, kind int) time.Duration {
	switch kind {
	case 0:
		return 0
	case 1:
		return -time.Millisecond
	case 2:
		return o.max + time.Nanosecond
	case 3:
		return o.max
	}
	return time.Millisecond + time.Duration(rng.Int63n(int64(300*time.Millisecond)))
}

// step applies one operation to both engines and reports the first
// difference, or "" when they still agree on everything.
func (o *clientOracle) step(op int, name string, co *Coordinate, rtt time.Duration) string {
	switch op {
	case opWitness:
		if g, w := o.got.Witness(name, co), o.want.Witness(name, co); g != w {
			return fmt.Sprintf("Witness(%s) = %v, seed %v", name, g, w)
		}
	case opObserve, opObserveAgain:
		g, w := o.got.Observe(name, co, rtt), o.want.Observe(name, co, rtt)
		if (g == nil) != (w == nil) {
			return fmt.Sprintf("Observe(%s, %v) = %v, seed %v", name, rtt, g, w)
		}
		if g == nil {
			o.applied++
		}
	case opForget:
		o.got.Forget(name)
		o.want.Forget(name)
	}
	return o.compare()
}

func sameBits(a, b *Coordinate) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Vec) != len(b.Vec) {
		return false
	}
	for i := range a.Vec {
		if math.Float64bits(a.Vec[i]) != math.Float64bits(b.Vec[i]) {
			return false
		}
	}
	return math.Float64bits(a.Error) == math.Float64bits(b.Error) &&
		math.Float64bits(a.Adjustment) == math.Float64bits(b.Adjustment) &&
		math.Float64bits(a.Height) == math.Float64bits(b.Height)
}

func (o *clientOracle) compare() string {
	if !sameBits(o.got.coord, o.want.coord) {
		return fmt.Sprintf("own coordinate %v, seed %v", o.got.coord, o.want.coord)
	}
	if g, w := o.got.PeerNames(), o.want.PeerNames(); !slices.Equal(g, w) {
		return fmt.Sprintf("PeerNames = %v, seed %v", g, w)
	}
	for _, name := range o.names {
		if g, w := o.got.PeerCoordinate(name), o.want.PeerCoordinate(name); !sameBits(g, w) {
			return fmt.Sprintf("PeerCoordinate(%s) = %v, seed %v", name, g, w)
		}
		gd, gok := o.got.EstimateRTT(name)
		wd, wok := o.want.EstimateRTT(name)
		if gd != wd || gok != wok {
			return fmt.Sprintf("EstimateRTT(%s) = %v %v, seed %v %v", name, gd, gok, wd, wok)
		}
	}
	for _, ref := range []string{"", o.names[0], o.names[len(o.names)/2]} {
		for _, k := range []int{3, len(o.names)} {
			o.gotOut = o.got.NearestPeerIndexes(ref, o.names, k, o.gotOut[:0])
			o.wantOut = o.want.NearestPeerIndexes(ref, o.names, k, o.wantOut[:0])
			if !slices.Equal(o.gotOut, o.wantOut) {
				return fmt.Sprintf("NearestPeerIndexes(%q, k=%d) = %v, seed %v", ref, k, o.gotOut, o.wantOut)
			}
		}
	}
	return ""
}

// TestClientMatchesSeed drives the one-record engine and the two-map
// seed engine with seeded mixes of witnesses, observations (invalid
// coordinates and out-of-range RTTs included), forgets and re-learns;
// after every step the own coordinate must match bit for bit, and every
// peer-facing query must answer the same.
func TestClientMatchesSeed(t *testing.T) {
	steps := 4000
	if testing.Short() {
		steps = 1000
	}
	for seed := int64(1); seed <= 4; seed++ {
		o := newClientOracle(t, seed, 12)
		rng := rand.New(rand.NewSource(seed * 7919))
		for k := 0; k < steps; k++ {
			op := rng.Intn(numOps)
			name := o.names[rng.Intn(len(o.names))]
			co := o.coordinate(rng, rng.Intn(40))
			if msg := o.step(op, name, co, o.rtt(rng, rng.Intn(40))); msg != "" {
				t.Fatalf("seed %d, step %d (op %d on %s): %s", seed, k, op, name, msg)
			}
		}
		if o.applied == 0 {
			t.Fatalf("seed %d: no observation was applied", seed)
		}
	}
}

// FuzzClientMatchesSeed runs the same oracle over fuzz-chosen
// operation sequences: two bytes seed the coordinate and RTT draws,
// then each three bytes are one step — operation, peer, and the
// coordinate and RTT kinds to draw (one nibble each).
func FuzzClientMatchesSeed(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0x44, 1, 0, 0x45, 1, 0, 0x46, 3, 0, 0x40, 1, 0, 0x04, 2, 1, 0x30})
	rng := rand.New(rand.NewSource(1))
	mix := []byte{0, 2}
	for i := 0; i < 90; i++ {
		mix = append(mix, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	f.Add(mix)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		o := newClientOracle(t, int64(data[0]), 6)
		rng := rand.New(rand.NewSource(int64(data[1])))
		for k := 0; 2+3*k+2 < len(data); k++ {
			op, who, kinds := data[2+3*k], data[2+3*k+1], data[2+3*k+2]
			name := o.names[int(who)%len(o.names)]
			co, rtt := o.coordinate(rng, int(kinds&0xf)), o.rtt(rng, int(kinds>>4))
			if msg := o.step(int(op)%numOps, name, co, rtt); msg != "" {
				t.Fatalf("step %d (op %d on %s): %s", k, int(op)%numOps, name, msg)
			}
		}
	})
}
