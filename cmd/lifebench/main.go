// Command lifebench regenerates the Lifeguard paper's tables and
// figures on the discrete-event simulator, plus the scenarios built on
// top of it: the chaos fault matrix, large-cluster churn,
// partition/heal, and rolling restarts.
//
// Usage:
//
//	lifebench -list
//	lifebench -exp table4 [-scale smoke|bench|paper] [-seed N]
//	lifebench -exp all -scale bench -parallel 4
//	lifebench -exp chaos,rolling-restart -json
//
// Experiments are the registered scenarios (see -list), the
// table/figure aliases fig1, fig2, fig3, table4, table5, table6 and
// table7 (each a report section of one scenario, printed alone), and
// "all"; every name comes from the scenario registry. Scales trade
// fidelity for time: smoke (seconds), bench (minutes, default), paper
// (the full grids of Tables II/III with 10 repetitions — hours). -scale
// is the one place a scenario is sized; code inside this module may
// instead pass a custom experiment.Scale to experiment.RunScenarios.
//
// -quiet silences stderr's progress and per-experiment timing lines;
// stdout is the same either way.
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
	"slices"
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

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lifebench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "comma-separated experiments: any registered scenario, a table/figure alias, or all (see -list)")
		list     = fs.Bool("list", false, "list the registered scenarios and aliases, then exit")
		scale    = fs.String("scale", "bench", "sweep scale: smoke|bench|paper")
		seed     = fs.Int64("seed", 1, "base RNG seed")
		parallel = fs.Int("parallel", 1, "max scenario cells run concurrently (output identical at any value)")
		quiet    = fs.Bool("quiet", false, "suppress the progress and per-experiment timing lines on stderr")
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
	names, shown, err := selectExperiments(*exp)
	if err != nil {
		return err
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

	// The selected scenarios run through one shared worker pool, so a
	// short scenario's tail never idles workers while a long one runs.
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
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s took %v]\n", nr.Name, time.Duration(nr.Wall*float64(time.Second)).Round(time.Millisecond))
		}
		records = append(records, nr.Records...)
		if !*jsonOut {
			keys := shown[nr.Name]
			for _, section := range nr.Sections {
				if keys != nil && !keys[section.Key] {
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

// selectExperiments resolves a comma-separated -exp value into the
// scenarios to run, in registry order, and for each the section keys to
// print (nil: every section). A token is "all", a scenario name, or an
// alias (see aliases). A scenario selected whole, by "all" or by name,
// prints every section whatever aliases select it too.
func selectExperiments(exp string) ([]string, map[string]map[string]bool, error) {
	// scenarioOf maps every accepted token but "all" to its scenario;
	// scenario names go in last, so a name always selects its scenario.
	scenarioOf := map[string]string{}
	accepted := experiment.ScenarioNames()
	for _, a := range aliases() {
		scenarioOf[a.key] = a.scenario
		accepted = append(accepted, a.key)
	}
	for _, name := range experiment.ScenarioNames() {
		scenarioOf[name] = name
	}
	shown := map[string]map[string]bool{}
	for _, token := range strings.Split(exp, ",") {
		token = strings.TrimSpace(token)
		scenario, ok := scenarioOf[token]
		switch {
		case token == "all":
			for _, name := range experiment.ScenarioNames() {
				shown[name] = nil
			}
		case !ok:
			return nil, nil, fmt.Errorf("unknown experiment %q (want %s|all)", token, strings.Join(accepted, "|"))
		case scenario == token:
			shown[scenario] = nil
		default:
			keys, picked := shown[scenario]
			if !picked {
				// First selection of this scenario, by an alias: show
				// only the aliased sections.
				keys = map[string]bool{}
				shown[scenario] = keys
			}
			if keys != nil {
				keys[token] = true
			}
		}
	}
	var names []string
	for _, name := range experiment.ScenarioNames() {
		if _, ok := shown[name]; ok {
			names = append(names, name)
		}
	}
	return names, shown, nil
}

// alias is a report section key that selects that one section of its
// scenario: the paper's table and figure names (table4 → the interval
// scenario's Table IV).
type alias struct{ key, scenario string }

// aliases lists every section key that is not its own scenario's name,
// sorted by key.
func aliases() []alias {
	var al []alias
	for _, s := range experiment.Scenarios() {
		for _, key := range s.Sections() {
			if key != s.Name() {
				al = append(al, alias{key, s.Name()})
			}
		}
	}
	slices.SortFunc(al, func(a, b alias) int { return strings.Compare(a.key, b.key) })
	return al
}

// listScenarios prints the registry and the table/figure aliases.
func listScenarios(stdout io.Writer) error {
	fmt.Fprintln(stdout, "Registered scenarios (run order of -exp all):")
	for _, s := range experiment.Scenarios() {
		fmt.Fprintf(stdout, "  %-16s %s\n", s.Name(), s.Description())
	}
	fmt.Fprintln(stdout, "Aliases:")
	for _, a := range aliases() {
		fmt.Fprintf(stdout, "  %-16s %s section of the %s scenario\n", a.key, a.key, a.scenario)
	}
	return nil
}

// scaleByName finds the -scale preset whose Name is name.
func scaleByName(name string) (experiment.Scale, error) {
	presets := []experiment.Scale{experiment.ScaleSmoke, experiment.ScaleBench, experiment.ScalePaper}
	names := make([]string, len(presets))
	for i, sc := range presets {
		if sc.Name == name {
			return sc, nil
		}
		names[i] = sc.Name
	}
	return experiment.Scale{}, fmt.Errorf("unknown scale %q (want %s)", name, strings.Join(names, "|"))
}
