package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestClusterConfigSurface pins ClusterConfig's exported fields: a
// field is added only with a caller outside the tests that sets it.
func TestClusterConfigSurface(t *testing.T) {
	want := []string{"N", "Seed", "Protocol"}
	typ := reflect.TypeOf(ClusterConfig{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("a new ClusterConfig field needs a non-test caller that sets it (docs/ARCHITECTURE.md, Contracts)\n got %d: %v\nwant %d: %v",
			len(got), got, len(want), want)
	}
}

// TestScaleSurface pins Scale's fields and that every preset sets each
// one: no driver fills a zero field with a default, so a zero field is
// an empty grid or a zero-length phase.
func TestScaleSurface(t *testing.T) {
	want := []string{
		"Name", "N", "Cs", "Ds", "Is", "Runs", "StressCounts", "StressDuration",
		"ChaosN", "ChaosFaultFor", "ChaosSettle",
		"Alphas", "Betas", "ChurnN", "ChurnFor", "PartitionN", "RestartN", "RestartWaves",
	}
	typ := reflect.TypeOf(Scale{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("a new Scale field needs every preset to set it (docs/ARCHITECTURE.md, Contracts)\n got %d: %v\nwant %d: %v",
			len(got), got, len(want), want)
	}
	for _, sc := range []Scale{ScaleSmoke, ScaleBench, ScalePaper} {
		v := reflect.ValueOf(sc)
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.IsZero() || (f.Kind() == reflect.Slice && f.Len() == 0) {
				t.Errorf("scale %q leaves %s unset", sc.Name, typ.Field(i).Name)
			}
		}
	}
}

// TestRegistry pins the registered scenario set, lookup behaviour and
// the section keys a scenario reports.
func TestRegistry(t *testing.T) {
	want := []string{
		"interval", "threshold", "tuning", "stress", "chaos", "churn", "partition", "rolling-restart",
	}
	names := ScenarioNames()
	if len(names) != len(want) {
		t.Fatalf("registry = %v, want %v", names, want)
	}
	for i, name := range want {
		if names[i] != name {
			t.Fatalf("registry = %v, want %v", names, want)
		}
		s, err := lookupScenario(name)
		if err != nil {
			t.Fatalf("lookup %s: %v", name, err)
		}
		if s.Name() != name || s.Description() == "" || len(s.Sections()) == 0 {
			t.Errorf("scenario %s: name %q, empty description %t, sections %v", name, s.Name(), s.Description() == "", s.Sections())
		}
	}
	interval, _ := lookupScenario("interval")
	if got, want := interval.Sections(), []string{"table4", "fig2", "fig3", "table6"}; !slices.Equal(got, want) {
		t.Errorf("interval sections = %v, want %v (display order)", got, want)
	}
	if _, err := lookupScenario("bogus"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestRunCellsOrderAndParallelism checks the executor returns outputs
// in canonical order regardless of completion order, and actually
// overlaps cell execution.
func TestRunCellsOrderAndParallelism(t *testing.T) {
	var inFlight, maxInFlight atomic.Int32
	cells := make([]cell, 8)
	for i := range cells {
		i := i
		cells[i] = cell{
			Label: fmt.Sprintf("cell-%d", i),
			Run: func() (any, error) {
				cur := inFlight.Add(1)
				for {
					prev := maxInFlight.Load()
					if cur <= prev || maxInFlight.CompareAndSwap(prev, cur) {
						break
					}
				}
				// Later cells finish first, so canonical-order output
				// must not mean completion order.
				time.Sleep(time.Duration(len(cells)-i) * 2 * time.Millisecond)
				inFlight.Add(-1)
				return i, nil
			},
		}
	}
	var calls int
	outs, err := runCells(cells, 4, func(done, total int) {
		calls++
		if total != len(cells) || done < 1 || done > total {
			t.Errorf("progress %d/%d out of range", done, total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.(int) != i {
			t.Fatalf("outs[%d] = %v, want %d (canonical order)", i, out, i)
		}
	}
	if calls != len(cells) {
		t.Errorf("progress called %d times, want %d", calls, len(cells))
	}
	if maxInFlight.Load() < 2 {
		t.Errorf("max in-flight cells = %d, want ≥ 2 under parallel execution", maxInFlight.Load())
	}
}

// TestRunCellsPropagatesErrors checks a failing cell surfaces its
// label and stops the run, serially and in parallel.
func TestRunCellsPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	cells := []cell{
		{Label: "ok", Run: func() (any, error) { return 1, nil }},
		{Label: "bad", Run: func() (any, error) { return nil, boom }},
		{Label: "ok2", Run: func() (any, error) { return 2, nil }},
	}
	for _, parallel := range []int{1, 3} {
		_, err := runCells(cells, parallel, nil)
		if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "bad") {
			t.Errorf("parallel=%d: err = %v, want wrapped boom naming the cell", parallel, err)
		}
	}
}

// TestRunScenarioStampsRecords checks the harness stamps scale, seed,
// wall-clock duration and cell count onto every record.
func TestRunScenarioStampsRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("partition run")
	}
	sc := Scale{Name: "tiny", PartitionN: 16}
	res := runOne(t, "partition", RunOptions{Scale: sc, Seed: 3})
	if res.Name != "partition" || len(res.Records) != 1 || len(res.Sections) != 1 {
		t.Fatalf("got %d records, %d sections", len(res.Records), len(res.Sections))
	}
	rec := res.Records[0]
	if rec.Scale != "tiny" || rec.Seed != 3 || rec.Cells != 1 || rec.Wall <= 0 {
		t.Errorf("record stamp = scale %q seed %d cells %d wall %g", rec.Scale, rec.Seed, rec.Cells, rec.Wall)
	}
	if rec.Experiment != "partition" || rec.Metrics["remerged"] != 1 {
		t.Errorf("partition record %+v", rec)
	}
	if _, err := RunScenarios([]string{"bogus"}, RunOptions{}); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// runOne runs one registered scenario through RunScenarios.
func runOne(t *testing.T, name string, opt RunOptions) NamedResult {
	t.Helper()
	results, err := RunScenarios([]string{name}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

// recordsJSON runs a scenario and returns its records as JSON with the
// wall-clock field — the single documented nondeterministic field —
// zeroed, so runs can be compared byte for byte.
func recordsJSON(t *testing.T, name string, opt RunOptions) []byte {
	t.Helper()
	res := runOne(t, name, opt)
	for i := range res.Records {
		res.Records[i].Wall = 0
	}
	b, err := json.Marshal(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChaosParallelMatchesSerial pins the harness determinism contract
// on the chaos matrix: -parallel N must produce byte-identical records
// to a serial run across the full scenario × configuration grid.
func TestChaosParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("double chaos matrix run")
	}
	opt := RunOptions{
		Scale: Scale{Name: "tiny", ChaosN: 24, ChaosFaultFor: 12 * time.Second, ChaosSettle: 12 * time.Second},
		Seed:  5,
	}
	serial := recordsJSON(t, "chaos", opt)
	opt.Parallel = 4
	parallel := recordsJSON(t, "chaos", opt)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("parallel chaos records differ from serial:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

// TestSweepParallelMatchesSerial pins the determinism contract on the
// protocol sweep: the interval sweep's per-cell seeds derive from
// canonical grid positions, so parallel and serial runs must emit
// byte-identical records.
func TestSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("double interval sweep run")
	}
	opt := RunOptions{
		Scale: Scale{
			Name: "tiny", N: 24,
			Cs:   []int{2},
			Ds:   []time.Duration{512 * time.Millisecond},
			Is:   []time.Duration{64 * time.Millisecond},
			Runs: 1,
		},
		Seed: 5,
	}
	serial := recordsJSON(t, "interval", opt)
	opt.Parallel = 5
	parallel := recordsJSON(t, "interval", opt)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("parallel interval records differ from serial:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

// TestRestartParallelMatchesSerial pins the determinism contract on
// the rolling-restart scenario through the registry path.
func TestRestartParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("double rolling-restart run")
	}
	opt := RunOptions{
		Scale: Scale{Name: "tiny", RestartN: 24, RestartWaves: 2},
		Seed:  5,
	}
	serial := recordsJSON(t, "rolling-restart", opt)
	opt.Parallel = 5
	parallel := recordsJSON(t, "rolling-restart", opt)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("parallel rolling-restart records differ from serial:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

// TestRunCellsProgressMonotone hammers the parallel executor with
// fast-finishing cells and checks the progress callback sees a strictly
// increasing done sequence ending at the total — the racing-workers
// regression: two workers finishing back to back must never report a
// stale lower count after a higher one.
func TestRunCellsProgressMonotone(t *testing.T) {
	const n = 200
	cells := make([]cell, n)
	for i := range cells {
		i := i
		cells[i] = cell{
			Label: fmt.Sprintf("cell-%d", i),
			Run:   func() (any, error) { return i, nil },
		}
	}
	for run := 0; run < 20; run++ {
		last := 0
		_, err := runCells(cells, 8, func(done, total int) {
			if total != n {
				t.Fatalf("total = %d, want %d", total, n)
			}
			if done <= last {
				t.Fatalf("progress not strictly increasing: %d after %d", done, last)
			}
			last = done
		})
		if err != nil {
			t.Fatal(err)
		}
		if last != n {
			t.Fatalf("final progress = %d, want %d", last, n)
		}
	}
}

// TestRunCellsProgressNotBlockedByCallback checks a slow progress
// callback does not serialize the workers: cells must still overlap
// while a callback sleeps.
func TestRunCellsProgressNotBlockedByCallback(t *testing.T) {
	var inFlight, maxInFlight atomic.Int32
	cells := make([]cell, 16)
	for i := range cells {
		i := i
		cells[i] = cell{
			Label: fmt.Sprintf("cell-%d", i),
			Run: func() (any, error) {
				cur := inFlight.Add(1)
				for {
					prev := maxInFlight.Load()
					if cur <= prev || maxInFlight.CompareAndSwap(prev, cur) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				inFlight.Add(-1)
				return i, nil
			},
		}
	}
	_, err := runCells(cells, 4, func(done, total int) {
		time.Sleep(5 * time.Millisecond) // a slow UI callback
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxInFlight.Load() < 2 {
		t.Errorf("max in-flight = %d under a slow progress callback, want ≥ 2", maxInFlight.Load())
	}
}

// TestRunScenariosSharedPoolMatchesPerScenario pins the cross-scenario
// pool's determinism contract: running several scenarios through one
// shared worker pool — serially and at -parallel 4 — must produce
// records byte-identical to running each scenario on its own (wall_s
// zeroed, the single documented nondeterministic field).
func TestRunScenariosSharedPoolMatchesPerScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario runs")
	}
	names := []string{"partition", "rolling-restart", "chaos"}
	opt := RunOptions{
		Scale: Scale{
			Name: "tiny", PartitionN: 16,
			RestartN: 24, RestartWaves: 2,
			ChaosN: 24, ChaosFaultFor: 12 * time.Second, ChaosSettle: 12 * time.Second,
		},
		Seed: 5,
	}
	var want []byte
	for _, name := range names {
		want = append(want, recordsJSON(t, name, opt)...)
		want = append(want, '\n')
	}
	for _, parallel := range []int{0, 4} {
		opt.Parallel = parallel
		results, err := RunScenarios(names, opt)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		for i, nr := range results {
			if nr.Name != names[i] {
				t.Fatalf("results[%d] = %q, want %q", i, nr.Name, names[i])
			}
			if len(nr.Records) == 0 {
				t.Fatalf("scenario %s: empty result", nr.Name)
			}
			// The byte comparison below covers the cells stamp too.
			for r := range nr.Records {
				nr.Records[r].Wall = 0
			}
			b, err := json.Marshal(nr.Records)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, b...)
			got = append(got, '\n')
		}
		if !bytes.Equal(want, got) {
			t.Errorf("parallel=%d: shared-pool records differ from per-scenario runs:\nwant: %s\ngot:  %s", parallel, want, got)
		}
	}
}
