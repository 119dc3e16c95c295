// Benchmarks that regenerate every table and figure of the Lifeguard
// paper's evaluation (§V) on the discrete-event simulator, at a reduced
// but shape-preserving sweep scale. cmd/lifebench runs the same
// experiments at larger scales (-scale bench|paper).
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the paper-layout table it regenerates and
// reports the headline comparison as benchmark metrics (e.g. FP counts
// and their ratio to the SWIM baseline).
package lifeguard_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"lifeguard/internal/broadcast"
	"lifeguard/internal/core"
	"lifeguard/internal/experiment"
	"lifeguard/internal/sim"
	"lifeguard/internal/wire"
)

// benchScale trades the paper's full grids (Tables II/III, 10
// repetitions) for minutes of runtime while keeping every qualitative
// axis: the full concurrency axis (Figures 2/3 need it), anomaly
// durations on both sides of the suspicion timeout, and short+long
// recovery intervals.
var benchScale = experiment.Scale{
	Name: "bench64",
	N:    64,
	Cs:   experiment.PaperCs,
	Ds: []time.Duration{
		2048 * time.Millisecond,
		16384 * time.Millisecond,
		32768 * time.Millisecond,
	},
	Is: []time.Duration{
		64 * time.Millisecond,
		1024 * time.Millisecond,
	},
	Runs:           1,
	StressCounts:   []int{1, 4, 8, 16, 24, 32},
	StressDuration: 2 * time.Minute,
}

// tuningScale further trims the grid for the 10-sweep Table VII run.
var tuningScale = experiment.Scale{
	Name: "tuning64",
	N:    64,
	Cs:   []int{4, 16, 32},
	Ds: []time.Duration{
		16384 * time.Millisecond,
		32768 * time.Millisecond,
	},
	Is:     []time.Duration{64 * time.Millisecond, 1024 * time.Millisecond},
	Runs:   1,
	Alphas: experiment.PaperAlphas,
	Betas:  experiment.PaperBetas,
}

const benchSeed = 1

// runScenario runs one registered scenario through the harness's
// shared worker pool — the same door cmd/lifebench uses.
func runScenario(b *testing.B, name string, sc experiment.Scale) experiment.NamedResult {
	b.Helper()
	results, err := experiment.RunScenarios([]string{name}, experiment.RunOptions{
		Scale: sc, Seed: benchSeed, Parallel: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		b.Fatal(err)
	}
	return results[0]
}

// intervalCache memoizes the interval scenario: Table IV, Table VI and
// Figures 2/3 all render views of the same deterministic sweep (fixed
// seeds), so re-running it per benchmark would only burn time.
var intervalCache *experiment.NamedResult

func intervalScenario(b *testing.B) experiment.NamedResult {
	b.Helper()
	if intervalCache == nil {
		res := runScenario(b, "interval", benchScale)
		intervalCache = &res
	}
	return *intervalCache
}

// printSection prints the report section a benchmark regenerates.
func printSection(b *testing.B, res experiment.NamedResult, key string, sc experiment.Scale) {
	b.Helper()
	for _, sec := range res.Sections {
		if sec.Key == key {
			fmt.Printf("\n== %s (scale %s) ==\n%s\n", sec.Title, sc.Name, sec.Body)
			return
		}
	}
	b.Fatalf("no %q section in the scenario result", key)
}

// reportPinned reports a headline metric and fails the benchmark if it
// no longer reads as want in `go test`'s output (whole numbers from
// 1000 up, four significant digits below). The sweeps are
// seed-determined, so a moved value is a behaviour change, not noise.
func reportPinned(b *testing.B, got, want float64, unit string) {
	b.Helper()
	b.ReportMetric(got, unit)
	tol := 0.0
	if a := math.Abs(want); a > 0 && a < 999.95 {
		tol = 0.5 * math.Pow(10, math.Floor(math.Log10(a))-3)
	}
	if math.Abs(got-want) > tol {
		b.Errorf("%s = %v, pinned at %v (seed %d)", unit, got, want, benchSeed)
	}
}

// BenchmarkFigure1CPUExhaustion regenerates Figure 1: false positives
// versus number of CPU-exhausted members, SWIM against full Lifeguard.
func BenchmarkFigure1CPUExhaustion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runScenario(b, "stress", benchScale)
		fp := map[string]float64{}
		for _, rec := range res.Records {
			fp[rec.Config] += rec.Metrics["fp"]
		}
		reportPinned(b, fp["SWIM"], 4499, "swim-fp")
		reportPinned(b, fp["Lifeguard"], 0, "lifeguard-fp")
		if i == 0 {
			printSection(b, res, "fig1", benchScale)
		}
	}
}

// BenchmarkTable4FalsePositives regenerates Table IV: aggregated false
// positives per configuration, and Figures 2/3 from the same sweep.
func BenchmarkTable4FalsePositives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := intervalScenario(b)
		swim, lg := res.Records[0].Metrics, res.Records[len(res.Records)-1].Metrics
		reportPinned(b, swim["fp"], 10700, "swim-fp")
		reportPinned(b, lg["fp"], 916, "lifeguard-fp")
		reportPinned(b, lg["fp"]/swim["fp"]*100, 8.561, "fp-pct-of-swim")
		if i == 0 {
			printSection(b, res, "table4", benchScale)
		}
	}
}

// BenchmarkFigure2FPByConcurrency regenerates Figure 2: total false
// positives versus concurrent anomalies for each configuration.
func BenchmarkFigure2FPByConcurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := intervalScenario(b)
		if i == 0 {
			printSection(b, res, "fig2", benchScale)
		}
	}
}

// BenchmarkFigure3FPHealthyByConcurrency regenerates Figure 3: false
// positives at healthy members versus concurrent anomalies.
func BenchmarkFigure3FPHealthyByConcurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := intervalScenario(b)
		if i == 0 {
			printSection(b, res, "fig3", benchScale)
		}
	}
}

// BenchmarkTable5DetectionLatency regenerates Table V: first-detection
// and full-dissemination latency percentiles per configuration.
func BenchmarkTable5DetectionLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runScenario(b, "threshold", benchScale)
		swim, lg := res.Records[0].Metrics, res.Records[len(res.Records)-1].Metrics
		reportPinned(b, swim["first_detect_median_s"], 11.03, "swim-med-detect-s")
		reportPinned(b, lg["first_detect_median_s"], 11.03, "lifeguard-med-detect-s")
		if i == 0 {
			printSection(b, res, "table5", benchScale)
		}
	}
}

// BenchmarkTable6MessageLoad regenerates Table VI: messages and bytes
// sent per configuration.
func BenchmarkTable6MessageLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := intervalScenario(b)
		swim, lg := res.Records[0].Metrics, res.Records[len(res.Records)-1].Metrics
		reportPinned(b, lg["msgs_sent"]/swim["msgs_sent"]*100, 94.33, "msgs-pct-of-swim")
		reportPinned(b, lg["bytes_sent"]/swim["bytes_sent"]*100, 69.05, "bytes-pct-of-swim")
		if i == 0 {
			printSection(b, res, "table6", benchScale)
		}
	}
}

// BenchmarkTable7SuspicionTuning regenerates Table VII: Lifeguard's
// latency and false-positive metrics as a percentage of SWIM across the
// α/β tuning grid (the paper's, as tuningScale restricts neither axis).
func BenchmarkTable7SuspicionTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runScenario(b, "tuning", tuningScale)
		first, last := res.Records[0].Metrics, res.Records[len(res.Records)-1].Metrics
		reportPinned(b, first["med_first_pct_swim"], 63.99, "a2b2-med-detect-pct")
		reportPinned(b, last["fp_pct_swim"], 8.467, "a5b6-fp-pct")
		if i == 0 {
			printSection(b, res, "table7", tuningScale)
		}
	}
}

// --- Hot-path micro-benchmarks: gossip queue and piggyback encoding ---

// benchNode builds a started protocol node with n merged members on a
// virtual clock (timers are registered but never fire — the scheduler is
// not run) and a transport that discards every packet.
type nullTransport struct{ addr string }

func (t nullTransport) SendPacket(string, []byte, bool) error { return nil }
func (t nullTransport) LocalAddr() string                     { return t.addr }

func benchMemberName(i int) string { return fmt.Sprintf("member-%05d", i) }

func benchNode(tb testing.TB, n int) *core.Node {
	tb.Helper()
	sched := sim.NewScheduler(time.Unix(0, 0))
	cfg := core.DefaultConfig("bench-node")
	cfg.Clock = sim.NewClock(sched)
	cfg.Transport = nullTransport{addr: "bench-node"}
	cfg.RNG = rand.New(rand.NewSource(1))
	node, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := node.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(node.Shutdown)

	// Merge the whole membership in one push-pull response.
	states := make([]wire.PushPullState, n)
	for i := range states {
		name := benchMemberName(i)
		states[i] = wire.PushPullState{
			Name: name, Addr: name, Incarnation: 1, State: uint8(core.StateAlive),
		}
	}
	resp := &wire.PushPullResp{Source: benchMemberName(0), States: states}
	node.HandlePacket(benchMemberName(0), wire.EncodePacket([]wire.Message{resp}))
	if got := node.NumAlive(); got != n+1 {
		tb.Fatalf("bench node merged %d members, want %d", got, n+1)
	}
	return node
}

// BenchmarkBroadcastQueue exercises the broadcast queue at the sizes the
// workloads reach — N = 128 (the paper's cluster) and 384 (the join
// storm): one fresh update plus one full piggyback selection per
// iteration against a queue holding n pending updates. The queue is one
// ordered slice, so ns/op grows with n, but gently: Queue is a binary
// search plus one block shift, and a selection walks only until the
// 1400-byte budget is spent, then merges its picks back by binary search
// and block shifts — O(selected·log n) compares plus O(n) pointer moves.
func BenchmarkBroadcastQueue(b *testing.B) {
	for _, n := range []int{128, 384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := broadcast.NewQueue(func() int { return n }, 4)
			payload := make([]byte, 40)
			names := make([]string, n)
			for i := range names {
				names[i] = benchMemberName(i)
				q.Queue(names[i], payload)
			}
			emit := func([]byte) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Queue(names[i%n], payload)
				q.GetBroadcastsInto(wire.CompoundOverhead, 1400, emit)
			}
		})
	}
}

// BenchmarkEncodeAllocs measures the transmit hot path end to end: each
// iteration delivers one alive update (keeping the gossip queue
// stocked) and one ping, whose ack is sent with piggybacked gossip
// packed by the pooled wire.Packer straight from the queue into the
// packet buffer. The seed path burned ~3 allocations per piggybacked
// message (Unmarshal, re-Marshal, [][]byte growth) plus the per-packet
// sort — 80 allocs/op, 4167 B/op on this scenario. Round one of the
// hot-path work (pooled packers, indexed queue) brought it to 19
// allocs/op; round two (pooled inbound decode, member interning,
// static-dispatch encoding, payload-owning queue) to 0.
// TestPiggybackSendAllocs pins the budget.
func BenchmarkEncodeAllocs(b *testing.B) {
	node := benchNode(b, 64)
	from := benchMemberName(0)
	ping := wire.EncodePacket([]wire.Message{
		&wire.Ping{SeqNo: 7, Target: "bench-node", Source: from},
	})
	names := make([]string, 16)
	for i := range names {
		names[i] = benchMemberName(i)
	}
	var alive wire.Alive
	var aliveBuf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alive = wire.Alive{
			Incarnation: uint64(2 + i/16),
			Node:        names[i%16],
			Addr:        names[i%16],
		}
		aliveBuf = wire.AppendMarshal(aliveBuf[:0], &alive)
		node.HandlePacket(from, aliveBuf)
		node.HandlePacket(from, ping)
	}
}

// TestPiggybackSendAllocs pins the transmit hot path's allocation
// budget: one alive update plus one ping-with-piggybacked-ack performs
// no steady-state allocations (seed: 80 allocs/op; round one: 19). A
// regression means a pooled buffer, the decoder's string interning, the
// static-dispatch encoder or the direct queue-to-packet copy stopped
// working.
func TestPiggybackSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops items under the race detector, so the zero-alloc pin cannot hold")
	}
	node := benchNode(t, 64)
	from := benchMemberName(0)
	ping := wire.EncodePacket([]wire.Message{
		&wire.Ping{SeqNo: 7, Target: "bench-node", Source: from},
	})
	names := make([]string, 16)
	for i := range names {
		names[i] = benchMemberName(i)
	}
	var alive wire.Alive
	var aliveBuf []byte
	iter := 0
	warm := func() {
		alive = wire.Alive{
			Incarnation: uint64(2 + iter/16),
			Node:        names[iter%16],
			Addr:        names[iter%16],
		}
		iter++
		aliveBuf = wire.AppendMarshal(aliveBuf[:0], &alive)
		node.HandlePacket(from, aliveBuf)
		node.HandlePacket(from, ping)
	}
	warm() // fill the pools and the decoder's string table once
	allocs := testing.AllocsPerRun(500, warm)
	if allocs > 0 {
		t.Errorf("piggybacked send path allocates %.1f allocs/op, want 0 (seed was 80, round one 19)", allocs)
	}
}

// BenchmarkPartitionHeal measures the §II robustness property: how long
// a fully bisected cluster takes to re-merge after the network heals.
func BenchmarkPartitionHeal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec := runScenario(b, "partition", experiment.Scale{Name: "partition32", PartitionN: 32}).Records[0]
		if rec.Metrics["remerged"] != 1 {
			b.Fatal("partition did not heal")
		}
		b.ReportMetric(rec.Metrics["remerge_s"], "remerge-s")
	}
}
