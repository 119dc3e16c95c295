// Command lifebench regenerates the Lifeguard paper's tables and
// figures on the discrete-event simulator, plus the scenarios built on
// top of it: WAN coordinates, the chaos fault matrix, large-cluster
// churn, partition/heal, and rolling restarts.
//
// Usage:
//
//	lifebench -list
//	lifebench -exp table4 [-scale smoke|bench|paper] [-seed N]
//	lifebench -exp all -scale bench -parallel 4
//	lifebench -exp chaos,rolling-restart -json
//
// Experiments are the registered scenarios (see -list) plus the
// table/figure aliases fig1, fig2, fig3, table4, table5, table6,
// table7, and "all". Scales trade fidelity for time: smoke (seconds),
// bench (minutes, default), paper (the full grids of Tables II/III
// with 10 repetitions — hours). -scale is the one place a scenario is
// sized; code inside this module may instead pass a custom
// experiment.Scale to experiment.RunScenario.
//
// -parallel N runs up to N independent scenario cells concurrently.
// Every cell derives its seed from its canonical matrix position, so
// the output — human tables and JSON records alike — is byte-identical
// at any parallelism.
//
// -json replaces the human-readable tables with a JSON array of
// result records (experiment name, params, metrics, wall-clock
// duration and cell count), the stable interface for comparing results
// across commits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"lifeguard/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lifebench:", err)
		os.Exit(1)
	}
}

// aliases maps the paper's table/figure names to a registered scenario
// and the report section to display.
var aliases = map[string]struct{ scenario, section string }{
	"fig1":   {"stress", "fig1"},
	"fig2":   {"interval", "fig2"},
	"fig3":   {"interval", "fig3"},
	"table4": {"interval", "table4"},
	"table5": {"threshold", "table5"},
	"table6": {"interval", "table6"},
	"table7": {"tuning", "table7"},
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lifebench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "comma-separated experiments: any registered scenario, a table/figure alias, or all (see -list)")
		list     = fs.Bool("list", false, "list the registered scenarios and aliases, then exit")
		scale    = fs.String("scale", "bench", "sweep scale: smoke|bench|paper")
		seed     = fs.Int64("seed", 1, "base RNG seed")
		parallel = fs.Int("parallel", 1, "max scenario cells run concurrently (output identical at any value)")
		quiet    = fs.Bool("quiet", false, "suppress progress output")
		timings  = fs.Bool("timings", true, "print wall-clock timings per experiment")
		jsonOut  = fs.Bool("json", false, "emit machine-readable JSON records instead of tables")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the scenario runs to this file (inspect with go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a post-run heap profile to this file (inspect with go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		return listScenarios(stdout)
	}

	sc, err := scaleByName(*scale)
	if err != nil {
		return err
	}

	// Resolve the requested experiments into scenarios and the section
	// keys to display (nil = every section).
	type selection struct {
		run      bool
		sections map[string]bool // nil means all
	}
	selected := make(map[string]*selection)
	sel := func(name string) *selection {
		s := selected[name]
		if s == nil {
			s = &selection{}
			selected[name] = s
		}
		return s
	}
	for _, token := range strings.Split(*exp, ",") {
		token = strings.TrimSpace(token)
		switch {
		case token == "all":
			for _, name := range experiment.ScenarioNames() {
				s := sel(name)
				s.run = true
				s.sections = nil
			}
		case isScenario(token):
			s := sel(token)
			s.run = true
			s.sections = nil
		default:
			alias, ok := aliases[token]
			if !ok {
				return fmt.Errorf("unknown experiment %q (want %s|all)", token, strings.Join(experimentNames(), "|"))
			}
			s := sel(alias.scenario)
			if !s.run {
				// First selection of this scenario via an alias: show
				// only the aliased sections.
				s.sections = map[string]bool{}
			}
			s.run = true
			if s.sections != nil {
				s.sections[alias.section] = true
			}
		}
	}

	// Collect the selected scenarios in the canonical run order and
	// execute them through one shared worker pool, so a short
	// scenario's tail never idles workers while a long one runs.
	var names []string
	for _, s := range experiment.Scenarios() {
		if pick := selected[s.Name()]; pick != nil && pick.run {
			names = append(names, s.Name())
		}
	}

	var progress experiment.Progress
	if !*quiet {
		label := "cells"
		if len(names) == 1 {
			label = names[0]
		}
		progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d", label, done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	// The CPU profile brackets exactly the scenario runs — flag parsing
	// and report rendering stay out of the picture.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	results, err := experiment.RunScenarios(names, experiment.RunOptions{
		Scale:    sc,
		Seed:     *seed,
		Parallel: *parallel,
		Progress: progress,
	})
	if err != nil {
		return err
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}

	var records []experiment.Record
	for _, nr := range results {
		if *timings {
			fmt.Fprintf(os.Stderr, "[%s took %v]\n", nr.Name, time.Duration(nr.Wall*float64(time.Second)).Round(time.Millisecond))
		}
		records = append(records, nr.Result.Records...)
		if !*jsonOut {
			pick := selected[nr.Name]
			for _, section := range nr.Result.Sections {
				if pick.sections != nil && !pick.sections[section.Key] {
					continue
				}
				fmt.Fprintf(stdout, "== %s ==\n%s\n", section.Title, section.Body)
			}
		}
	}

	// Every -exp token either errored above or selected a registered
	// scenario, so at least one scenario always ran.
	if *jsonOut {
		return writeRecords(stdout, records)
	}
	return nil
}

// isScenario reports whether name is a registered scenario.
func isScenario(name string) bool {
	_, err := experiment.LookupScenario(name)
	return err == nil
}

// sortedAliases returns the alias names in stable display order.
func sortedAliases() []string {
	al := make([]string, 0, len(aliases))
	for name := range aliases {
		al = append(al, name)
	}
	sort.Strings(al)
	return al
}

// experimentNames lists every accepted -exp value (scenarios then
// aliases) for error messages.
func experimentNames() []string {
	return append(experiment.ScenarioNames(), sortedAliases()...)
}

// listScenarios prints the registry and the table/figure aliases.
func listScenarios(stdout io.Writer) error {
	fmt.Fprintln(stdout, "Registered scenarios (run order of -exp all):")
	for _, s := range experiment.Scenarios() {
		fmt.Fprintf(stdout, "  %-16s %s\n", s.Name(), s.Description())
	}
	fmt.Fprintln(stdout, "Aliases:")
	for _, name := range sortedAliases() {
		a := aliases[name]
		fmt.Fprintf(stdout, "  %-16s %s section of the %s scenario\n", name, a.section, a.scenario)
	}
	return nil
}

func scaleByName(name string) (experiment.Scale, error) {
	switch name {
	case "smoke":
		return experiment.ScaleSmoke, nil
	case "bench":
		return experiment.ScaleBench, nil
	case "paper":
		return experiment.ScalePaper, nil
	default:
		return experiment.Scale{}, fmt.Errorf("unknown scale %q (want smoke|bench|paper)", name)
	}
}
