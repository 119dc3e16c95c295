// Command benchmark is the repository's performance benchmark: three
// simulator workloads and two loopback-agent workloads, each reporting
// the same end-to-end metrics, and a traced mode that splits the cost by
// layer. See README.md in this directory.
//
//	benchmark -workload NAME [-seed 1] [-seconds 10] [-trace 0|1] [-reps K]
//	benchmark -list
//	benchmark -compare base.jsonl new.jsonl
//
// Standard output carries JSON only: one line with the full report
// (machine stamp, quartiles, sample counts), then — last — the result
// object the driver reads. Logs go to standard error. The exit code is
// non-zero only when the run could not be made or a correctness check
// failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lifeguard/internal/experiment"
)

// workload is one benchmark scenario. rep builds the system, boots it
// to a converged view, runs the measured phase once and tears it down;
// tr is nil for an untraced repetition.
type workload interface {
	rep(seed int64, tr *tracer) (repResult, error)
}

func workloadByName(name string) workload {
	if script, ok := simScripts[name]; ok {
		return simWorkload{name: name, script: script, proto: experiment.ConfigLifeguard}
	}
	switch name {
	case "agent-probe":
		return defaultProbeWorkload
	case "agent-join":
		return defaultJoinWorkload
	}
	return nil
}

const (
	// minReps is the fewest repetitions a run reports medians over. A
	// traced run alternates untraced and traced repetitions and needs
	// this many of each kind to have a median of either.
	minReps       = 3
	minRepsTraced = 2

	// subSeedStride spaces the sub-seeds of one run's repetitions, far
	// enough apart that runs on neighbouring seeds share none.
	subSeedStride = 1_000_003

	// wallCap stops a run from starting further repetitions, whatever
	// the minimum, on a machine too slow to fit them in the time the
	// driver allows one run.
	wallCap = 100 * time.Second
)

// stamp identifies the machine and build a report came from.
type stamp struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

// metricValue is one reported metric: the median over the run's
// repetitions (for ops_per_s and cpu_us_per_op, the figure pooled over
// them), with the per-repetition quartiles and sample count behind it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// report is the full result of one run, printed as one line and read
// back by -compare.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Seconds   int                    `json:"seconds"`
	Reps      int                    `json:"reps"`
	Stamp     stamp                  `json:"stamp"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"ops_attempted"`
	Failed    int64                  `json:"ops_failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverResult is the object the driver reads from the last line.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Int64("seed", 1, "seed for every RNG the workload uses")
		seconds = flag.Int("seconds", 10, "measure for at least this many seconds (repetitions are whole)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced repetitions and kernels")
		reps    = flag.Int("reps", 0, "run exactly this many repetitions instead of filling -seconds")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for the traced run's raw span sample")
		list    = flag.Bool("list", false, "print the workloads and every metric with unit, direction, bound and what it should move")
		compare = flag.Bool("compare", false, "compare two files of report lines: -compare base.jsonl new.jsonl")
	)
	flag.Parse()

	switch {
	case *list:
		printList()
	case *compare:
		if flag.NArg() != 2 {
			logf("-compare needs two files of report lines")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			logf("%v", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
	default:
		w := workloadByName(*name)
		if w == nil || flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
			logf("usage: -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-reps K]; -list names the workloads")
			os.Exit(2)
		}
		rep, err := run(*name, w, *seed, *seconds, *trace == 1, *reps, *outDir)
		if err != nil {
			logf("%s: %v", *name, err)
			os.Exit(1)
		}
		emit(rep)
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

func printList() {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{"workloads": workloads, "end_to_end": endToEnd, "per_layer": perLayer})
}

// emit prints the full report, then the driver's result object.
func emit(r *report) {
	enc := json.NewEncoder(os.Stdout)
	_ = enc.Encode(r)
	d := driverResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]driverMetric, len(r.Metrics))}
	for name, m := range r.Metrics {
		d.Metrics[name] = driverMetric{m.Value, m.Unit}
	}
	_ = enc.Encode(d)
}

// run executes one workload and assembles its report. An error means
// the run could not be completed; a completed run whose checks failed
// comes back with Correct false.
func run(name string, w workload, seed int64, seconds int, traced bool, fixedReps int, outDir string) (*report, error) {
	rep := &report{
		Workload: name, Seed: seed, Seconds: seconds, Correct: true,
		Stamp: stamp{runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), commit()},
	}
	if traced {
		rep.Trace = 1
	}
	need := minReps
	if traced {
		need = 2 * minRepsTraced
	}

	samples := make(map[string][]float64) // metric name -> one value per repetition that measured it
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }

	// Throughput and CPU per operation are pooled over the untraced
	// repetitions (total work over total time), not medians of
	// per-repetition rates: the repetitions' sub-seeds draw from a wide
	// speed distribution, and the pooled figure averages over the draws
	// where a median reports one of them.
	var pool struct{ rateOps, rateS, ops, cpuS float64 }
	// Tracing overhead compares each traced repetition with its twin.
	var twin repResult
	var twinWall, tracedWall float64
	var lastTracer *tracer
	began := time.Now()
	measured := 0.0

	for i := 0; ; i++ {
		// Every repetition runs its own sub-seed: how fast a seeded
		// simulation runs depends on the seed (the calendar queue sizes
		// its buckets from whatever is queued when it resizes), and a
		// run's figures should be over that variation, not one draw
		// from it. A traced run pairs each untraced repetition with a
		// traced twin on the same sub-seed.
		sub, tr := i, (*tracer)(nil)
		if traced {
			sub = i / 2
			if i%2 == 1 {
				tr = newTracer()
				lastTracer = tr
			}
		}
		res, err := w.rep(seed+int64(sub)*subSeedStride, tr)
		if err != nil {
			return nil, err
		}
		if res.ops < 1 || res.measuredS <= 0 {
			return nil, fmt.Errorf("repetition %d completed no operations", i)
		}
		rep.Reps++
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		measured += res.measuredS
		logf("%s rep %d traced=%v setup=%.3fs measured=%.3fs ops=%d failed=%d", name, i, tr != nil, res.setupS, res.measuredS, res.ops, res.failed)

		for k, v := range res.vals {
			add(k, v)
		}
		if sub == 0 {
			// Seed-determined values are reported for the seed itself,
			// so they repeat exactly however many repetitions fit.
			for k, v := range res.exact {
				add(k, v)
			}
		}
		if tr != nil {
			if res.fingerprint != twin.fingerprint {
				logf("tracing perturbed repetition %d:\n  untraced: %s\n  traced:   %s", i, twin.fingerprint, res.fingerprint)
				rep.Correct = false
			}
			twinWall += twin.measuredS
			tracedWall += res.measuredS
		} else {
			// End-to-end numbers and runtime counters come from
			// untraced repetitions only: the wrappers cost time and
			// allocate.
			twin = res
			if res.rateS == 0 {
				res.rateOps, res.rateS = res.ops, res.measuredS
			}
			pool.rateOps += float64(res.rateOps)
			pool.rateS += res.rateS
			pool.ops += float64(res.ops)
			pool.cpuS += res.cpuS
			add("ops_per_s", float64(res.rateOps)/res.rateS)
			add("cpu_us_per_op", res.cpuS*1e6/float64(res.ops))
			add("setup_s", res.setupS)
			add("runtime.cpu_s", res.cpuS)
			add("runtime.gc_cycles", res.gcCycles)
			add("runtime.gc_pause_ms", res.gcPauseMs)
		}

		if fixedReps > 0 {
			if rep.Reps >= fixedReps {
				break
			}
			continue
		}
		if (rep.Reps >= need && measured >= float64(seconds)) || time.Since(began) > wallCap {
			break
		}
	}
	if rep.Failed > 0 {
		logf("%s: %d of %d operations failed", name, rep.Failed, rep.Attempted)
	}

	pooled := map[string]float64{
		"ops_per_s":     pool.rateOps / pool.rateS,
		"cpu_us_per_op": pool.cpuS * 1e6 / pool.ops,
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		if _, isSim := w.(simWorkload); isSim {
			pooled["sim.events_per_s"] = pooled["ops_per_s"]
		}
		extra := make(map[string]float64)
		if err := runExtras(w, seed, extra); err != nil {
			return nil, err
		}
		for k, v := range extra {
			add(k, v)
		}
		if twinWall > 0 {
			add("trace.overhead_pct", 100*(tracedWall/twinWall-1))
		}
		if probe := samples["agent.probe_rtt_p50_us"]; len(probe) > 0 {
			add("agent.probe_overhead_x", median(probe)/median(samples["os.udp_echo_rtt_p50_us"]))
		}
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		add("runtime.heap_peak_mb", float64(mem.HeapSys)/(1<<20))
		if lastTracer != nil {
			path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
			if err := lastTracer.writeSamples(path); err != nil {
				logf("%v", err) // the sample is a convenience; the aggregates are already in hand
			}
		}
	} else {
		add("peak_rss_mb", peakRSSMB())
	}

	// A value nobody registered is a misspelt key: the metric it was
	// meant for would silently read 0.
	registered := make(map[string]bool)
	for _, d := range allMetrics() {
		registered[d.Name] = true
	}
	for k := range samples {
		if !registered[k] {
			return nil, fmt.Errorf("value %q is not a registered metric", k)
		}
	}

	rep.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		vs := samples[d.Name]
		q1, value, q3 := quartiles(vs)
		if v, ok := pooled[d.Name]; ok {
			value = v
		}
		rep.Metrics[d.Name] = metricValue{Value: value, Unit: d.Unit, Q1: q1, Q3: q3, N: len(vs)}
	}
	return rep, nil
}

// runExtras measures what a traced run reports once, not per
// repetition: the kernels, the raw-socket baselines on agent
// workloads, and the SWIM reference on the anomaly script.
func runExtras(w workload, seed int64, out map[string]float64) error {
	if err := runKernels(seed, out); err != nil {
		return err
	}
	swim, isSim := w.(simWorkload)
	if !isSim {
		return osBaselines(out)
	}
	if swim.script.swimRef {
		swim.proto = experiment.ConfigSWIM
		res, err := swim.rep(seed, nil)
		if err != nil {
			return fmt.Errorf("SWIM reference: %w", err)
		}
		out["core.fp_swim"] = res.exact["sim.false_positives"]
	}
	return nil
}

// commit is the revision the binary was built from, as run.sh passes
// it; a checkout that is not a git repository has none to give.
func commit() string {
	if c := os.Getenv("LGBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
