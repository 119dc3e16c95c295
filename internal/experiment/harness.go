package experiment

import (
	"fmt"
	"sync"
	"time"
)

// This file is the scenario harness: a shared plan/execute/report
// lifecycle and a deterministic parallel executor for the named
// experiment scenarios listed in scenarios.go — the paper's sweeps as
// well as the churn, partition, chaos and rolling-restart
// scenarios — so cmd/lifebench and the root package's paper benchmarks
// run them all through one door.
//
// Determinism contract: a scenario's plan must enumerate independent
// cells whose seeds derive from the base seed and the cell's canonical
// index, never from execution order or shared mutable state. The
// executor may run cells concurrently in any order, but it hands the
// scenario's records step the outputs in canonical (plan) order, so the
// records produced at -parallel N are byte-identical to a serial run.
// RunScenarios then stamps every record with the scale name, seed,
// wall_s and cell count; of those only wall_s — the wall-clock span,
// which measures the harness, not the simulation — varies between runs.

// Record is one machine-readable result row, the one result format of
// every scenario: cells return records (or the runs a sweep record sums
// and pools), and every human report section is rendered from them.
// cmd/lifebench emits records as a JSON array under -json, the stable
// interface for tracking bench trajectories across commits.
type Record struct {
	// Experiment names the table/figure/scenario ("table4", "chaos",
	// "rolling-restart", …).
	Experiment string `json:"experiment"`

	// Config is the protocol configuration the row describes, where
	// applicable ("SWIM", "Lifeguard", …).
	Config string `json:"config,omitempty"`

	// Scale and Seed identify the run for reproduction. RunScenarios
	// stamps both from its options.
	Scale string `json:"scale"`
	Seed  int64  `json:"seed"`

	// Wall is the wall-clock duration, in seconds, of the scenario run
	// that produced this record — the start of the perf trajectory a
	// BENCH_*.json series tracks. All records of one scenario invocation
	// share the value. It measures the harness on real hardware and is
	// therefore the single nondeterministic field: determinism checks
	// zero it before comparing records.
	Wall float64 `json:"wall_s"`

	// Cells is the number of independent cells the scenario executed to
	// produce its records (shared by all records of the invocation).
	Cells int `json:"cells"`

	// Params holds experiment-specific inputs (α/β, stressed count,
	// cluster size, …).
	Params map[string]any `json:"params,omitempty"`

	// Metrics holds the row's numeric results, keyed by metric name.
	Metrics map[string]float64 `json:"metrics"`
}

// Section is one human-readable report block of a scenario, rendered
// from its records: a stable key (cmd/lifebench selects views by it), a
// display title, and the formatted body.
type Section struct {
	// Key identifies the section ("table4", "fig2", "chaos", …).
	Key string

	// Title is the display heading.
	Title string

	// Body is the formatted table or figure text.
	Body string
}

// cell is one independent unit of scenario work: a fully seeded
// simulation run. Cells share nothing — each builds its own scheduler,
// network and cluster — so the executor may run any subset
// concurrently.
type cell struct {
	// Label names the cell for progress and error reporting.
	Label string

	// Run executes the cell and returns its scenario-specific output.
	Run func() (any, error)
}

// RunOptions parameterizes one scenario run.
type RunOptions struct {
	// Scale selects the sweep scale (grids, cluster sizes, durations):
	// the one place a registered scenario is sized. Outside this module
	// that means lifebench's -scale presets; code inside it may pass a
	// custom Scale.
	Scale Scale

	// Seed is the base RNG seed; every cell derives its own seed from
	// it and the cell's canonical index.
	Seed int64

	// Parallel is the maximum number of cells executed concurrently;
	// values below 1 mean 1. Output is identical at any value.
	Parallel int

	// Progress receives completion callbacks (cells done, cells total).
	// It may be nil. "done" counts completed cells, not canonical
	// positions, and successive calls carry strictly increasing done
	// values even under parallel execution (intermediate values may be
	// skipped; the final count is always delivered).
	Progress Progress
}

// Scenario is one registered experiment: it plans a set of independent
// seeded cells, folds their outputs into records, and renders its
// report sections from those records. plan and records must be pure
// with respect to execution order — see the determinism contract above.
type Scenario struct {
	name, desc string

	// plan enumerates the run's independent cells in canonical order.
	plan func(opt RunOptions) ([]cell, error)

	// records folds the cell outputs — provided in canonical order —
	// into the scenario's records.
	records func(opt RunOptions, outs []any) ([]Record, error)

	// sections lists the report blocks, in display order.
	sections []section
}

// section is one report block of a scenario: its key and title, and
// the renderer that formats the body from the stamped records.
type section struct {
	key, title string
	render     func(recs []Record, opt RunOptions) string
}

// Name is the registry key ("chaos", "rolling-restart", …).
func (s Scenario) Name() string { return s.name }

// Description is a one-line summary for listings.
func (s Scenario) Description() string { return s.desc }

// Sections returns the keys of the scenario's report sections, in
// display order.
func (s Scenario) Sections() []string {
	keys := make([]string, len(s.sections))
	for i, sec := range s.sections {
		keys[i] = sec.key
	}
	return keys
}

// Scenarios returns the registered scenarios in the canonical run
// order of "all".
func Scenarios() []Scenario {
	return append([]Scenario(nil), registry...)
}

// ScenarioNames returns the registered scenario names in run order.
func ScenarioNames() []string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.name
	}
	return names
}

// lookupScenario resolves a registered scenario by name.
func lookupScenario(name string) (Scenario, error) {
	for _, s := range registry {
		if s.name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("experiment: unknown scenario %q", name)
}

// NamedResult is one scenario's output from a RunScenarios batch.
type NamedResult struct {
	// Name is the scenario's registry key.
	Name string

	// Records holds one entry per result row, in canonical order.
	Records []Record

	// Sections holds the report blocks, in display order.
	Sections []Section

	// Wall is the wall-clock span, in seconds, from the scenario's first
	// cell starting to its last cell finishing: the value stamped into
	// its records' wall_s field.
	Wall float64
}

// RunScenarios is the harness's one entry point, for one scenario or
// many. It plans every named scenario up front, concatenates their
// cells into one global work list, and executes that list through a
// single worker pool of up to opt.Parallel workers. A short scenario's
// tail no longer idles workers while a long one runs — the pool drains
// cells across scenario boundaries. Each cell keeps its canonical index
// within its scenario, and each scenario's records step receives its
// outputs in canonical order, so the records are byte-identical to
// running the scenarios one at a time, at any parallelism (wall_s
// aside). Every record is stamped with the scale name, seed, wall_s and
// cell count before the sections are rendered from them.
func RunScenarios(names []string, opt RunOptions) ([]NamedResult, error) {
	type planned struct {
		s     Scenario
		cells []cell
		first int // index of the scenario's first cell in the global list
	}
	plans := make([]planned, len(names))
	var all []cell
	for i, name := range names {
		s, err := lookupScenario(name)
		if err != nil {
			return nil, err
		}
		cells, err := s.plan(opt)
		if err != nil {
			return nil, fmt.Errorf("experiment: plan %s: %w", name, err)
		}
		plans[i] = planned{s: s, cells: cells, first: len(all)}
		all = append(all, cells...)
	}

	// Wrap every cell to record its scenario's wall span: first start to
	// last finish, under one clock mutex (cheap relative to a cell run).
	var (
		wallMu sync.Mutex
		starts = make([]time.Time, len(names))
		ends   = make([]time.Time, len(names))
	)
	wrapped := make([]cell, len(all))
	for si := range plans {
		for ci, c := range plans[si].cells {
			si, run := si, c.Run
			wrapped[plans[si].first+ci] = cell{
				Label: c.Label,
				Run: func() (any, error) {
					wallMu.Lock()
					if starts[si].IsZero() {
						starts[si] = time.Now()
					}
					wallMu.Unlock()
					out, err := run()
					wallMu.Lock()
					ends[si] = time.Now()
					wallMu.Unlock()
					return out, err
				},
			}
		}
	}

	outs, err := runCells(wrapped, opt.Parallel, opt.Progress)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}

	results := make([]NamedResult, len(names))
	for i, p := range plans {
		recs, err := p.s.records(opt, outs[p.first:p.first+len(p.cells)])
		if err != nil {
			return nil, fmt.Errorf("experiment: records %s: %w", names[i], err)
		}
		wall := 0.0
		if !starts[i].IsZero() {
			wall = ends[i].Sub(starts[i]).Seconds()
		}
		for r := range recs {
			rec := &recs[r]
			rec.Scale = opt.Scale.Name
			rec.Seed = opt.Seed
			rec.Wall = wall
			rec.Cells = len(p.cells)
		}
		res := NamedResult{Name: names[i], Records: recs, Wall: wall}
		for _, sec := range p.s.sections {
			res.Sections = append(res.Sections, Section{Key: sec.key, Title: sec.title, Body: sec.render(recs, opt)})
		}
		results[i] = res
	}
	return results, nil
}

// runCells executes cells with up to parallel workers (one worker is
// the serial run) and returns their outputs in canonical (input) order
// regardless of completion order. The first cell error cancels the
// remaining unstarted cells.
func runCells(cells []cell, parallel int, progress Progress) ([]any, error) {
	outs := make([]any, len(cells))
	if parallel > len(cells) {
		parallel = len(cells)
	}
	if parallel < 1 {
		parallel = 1
	}

	var (
		mu       sync.Mutex
		next     int
		done     int
		firstErr error
		wg       sync.WaitGroup

		// progressMu serializes the user's progress callback without
		// holding mu, so a slow callback never blocks workers claiming
		// cells. reported tracks the highest done value already delivered:
		// two workers racing from finish to the callback can arrive out of
		// order, and the stale one must be dropped, not reported — the
		// sequence the callback sees is strictly increasing.
		progressMu sync.Mutex
		reported   int
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= len(cells) {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	finish := func(i int, out any, err error) {
		mu.Lock()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cell %s: %w", cells[i].Label, err)
			}
			mu.Unlock()
			return
		}
		outs[i] = out
		done++
		d := done
		mu.Unlock()
		if progress != nil {
			progressMu.Lock()
			if d > reported {
				reported = d
				progress(d, len(cells))
			}
			progressMu.Unlock()
		}
	}
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				out, err := cells[i].Run()
				finish(i, out, err)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return outs, nil
}
