package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"lifeguard/internal/experiment"
)

// listGolden is lifebench -list, byte for byte.
const listGolden = `Registered scenarios (run order of -exp all):
  interval         Interval sweeps over Table I: false positives and message load (Tables IV/VI, Figures 2/3)
  threshold        Threshold sweeps over Table I: detection and dissemination latency (Table V)
  tuning           Suspicion α/β grid against a SWIM baseline (Table VII)
  stress           CPU-exhaustion duty cycle, SWIM vs Lifeguard (Figure 1)
  wan              Multi-zone WAN: coordinate accuracy and cross-zone detection, static vs adaptive
  chaos            Fault-scenario matrix (degraded, flapping, partitioned, lossy, combined) × Table I
  churn            Large cluster under continuous fail/join/leave membership change
  partition        Full split and heal: independent operation and automatic re-merge (§II)
  rolling-restart  Members leave and rejoin in staggered waves, scored per Table I configuration
Aliases:
  fig1             fig1 section of the stress scenario
  fig2             fig2 section of the interval scenario
  fig3             fig3 section of the interval scenario
  table4           table4 section of the interval scenario
  table5           table5 section of the threshold scenario
  table6           table6 section of the interval scenario
  table7           table7 section of the tuning scenario
`

func TestScaleByName(t *testing.T) {
	cases := map[string]experiment.Scale{
		"smoke": experiment.ScaleSmoke,
		"bench": experiment.ScaleBench,
		"paper": experiment.ScalePaper,
	}
	for name, want := range cases {
		got, err := scaleByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Name != want.Name || got.N != want.N {
			t.Errorf("%s resolved to %+v", name, got)
		}
	}
	if _, err := scaleByName("bogus"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run([]string{"-exp", "bogus", "-scale", "smoke", "-quiet"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v", err)
	}
}

func TestRunRejectsUnknownScale(t *testing.T) {
	err := run([]string{"-exp", "table4", "-scale", "huge"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Errorf("err = %v", err)
	}
}

// TestRunRejectsBadFlags includes the per-scenario size overrides the
// CLI once had (-<scenario>-<knob>): -scale is the one place a scenario
// is sized, so flag parsing must reject each of them, before anything
// runs.
func TestRunRejectsBadFlags(t *testing.T) {
	names := []string{"definitely-not-a-flag"}
	for _, removed := range []struct {
		scenario string
		knobs    []string
	}{
		{"wan", []string{"members", "fail"}},
		{"chaos", []string{"members", "victims", "crashes"}},
		{"restart", []string{"members"}},
	} {
		for _, knob := range removed.knobs {
			names = append(names, removed.scenario+"-"+knob)
		}
	}
	for _, name := range names {
		err := run([]string{"-" + name + "=1", "-list"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s: err = %v, want flag parsing to reject it", name, err)
		}
	}
}

// TestRunList pins -list: every registered scenario in run order, then
// the table/figure aliases, without running anything.
func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); out != listGolden {
		t.Errorf("-list output changed:\n%s\nwant:\n%s", out, listGolden)
	}
}

// TestRunAliasSelectsSection checks a table alias runs its scenario but
// prints only the aliased section.
func TestRunAliasSelectsSection(t *testing.T) {
	if testing.Short() {
		t.Skip("interval sweep run")
	}
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table4", "-scale", "smoke", "-quiet", "-timings=false"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table IV") {
		t.Errorf("table4 output missing Table IV section:\n%s", out)
	}
	for _, unwanted := range []string{"Table VI", "Figure 2", "Figure 3"} {
		if strings.Contains(out, unwanted) {
			t.Errorf("table4 output leaked the %s section:\n%s", unwanted, out)
		}
	}
}

// TestRunWANJSON runs the WAN experiment at a reduced scale and checks
// the -json output parses into records with the expected shape.
func TestRunWANJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN run")
	}
	var buf bytes.Buffer
	if err := run([]string{"-exp", "wan", "-scale", "smoke", "-quiet", "-timings=false", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var records []experiment.Record
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("output is not a JSON record array: %v\noutput: %s", err, buf.String())
	}
	// The WAN experiment is a same-seed comparison: one static record,
	// one adaptive.
	if len(records) != 2 {
		t.Fatalf("got %d records, want 2", len(records))
	}
	adaptives := map[bool]bool{}
	for _, rec := range records {
		if rec.Experiment != "wan" || rec.Scale != "smoke" || rec.Seed != 1 {
			t.Errorf("record header %+v", rec)
		}
		for _, key := range []string{
			"coord_rel_err_median", "pairs_scored", "fp",
			"detect_cross_zone_median_s", "msgs_sent", "bytes_sent",
			"adaptive_timeouts", "relay_near_picks", "gossip_near_picks",
		} {
			if _, ok := rec.Metrics[key]; !ok {
				t.Errorf("metric %q missing: %v", key, rec.Metrics)
			}
		}
		if rec.Metrics["pairs_scored"] == 0 {
			t.Error("no coordinate pairs scored")
		}
		a, ok := rec.Params["adaptive"].(bool)
		if !ok {
			t.Errorf("record lacks adaptive param: %v", rec.Params)
			continue
		}
		adaptives[a] = true
		if a && rec.Metrics["adaptive_timeouts"] == 0 {
			t.Error("adaptive record took no adaptive timeouts")
		}
		if !a && rec.Metrics["adaptive_timeouts"] != 0 {
			t.Error("static record took adaptive timeouts")
		}
	}
	if !adaptives[true] || !adaptives[false] {
		t.Errorf("expected one static and one adaptive record, got %v", adaptives)
	}
	// JSON mode must not mix human tables into the stream.
	if strings.Contains(buf.String(), "==") {
		t.Error("JSON output contains table headers")
	}
}

// TestRunChaosJSON runs the chaos matrix at smoke scale through the
// CLI and checks the -json output has one well-formed record per
// (scenario, configuration) cell.
func TestRunChaosJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix run")
	}
	var buf bytes.Buffer
	// -parallel 2 exercises the concurrent executor through the CLI;
	// the record content is pinned byte-identical to serial by the
	// experiment package's determinism tests.
	if err := run([]string{"-exp", "chaos", "-scale", "smoke", "-quiet", "-timings=false", "-json", "-parallel", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	var records []experiment.Record
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("output is not a JSON record array: %v\noutput: %s", err, buf.String())
	}
	wantCells := len(experiment.ChaosScenarioNames()) * len(experiment.Configurations)
	if len(records) != wantCells {
		t.Fatalf("got %d records, want %d", len(records), wantCells)
	}
	for _, rec := range records {
		if rec.Experiment != "chaos" || rec.Scale != "smoke" || rec.Seed != 1 || rec.Config == "" {
			t.Errorf("record header %+v", rec)
		}
		if rec.Wall <= 0 || rec.Cells != wantCells {
			t.Errorf("record stamp wall_s=%g cells=%d, want wall_s > 0 and cells = %d", rec.Wall, rec.Cells, wantCells)
		}
		for _, key := range []string{"fp", "crashes_detected", "suspicions", "refuted", "duplicated", "reordered"} {
			if _, ok := rec.Metrics[key]; !ok {
				t.Errorf("metric %q missing: %v", key, rec.Metrics)
			}
		}
	}
	if strings.Contains(buf.String(), "==") {
		t.Error("JSON output contains table headers")
	}
}

// TestRunJSONTableSmoke checks -json on a table experiment emits one
// record per protocol configuration.
func TestRunJSONTableSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run")
	}
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table5", "-scale", "smoke", "-quiet", "-timings=false", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var records []experiment.Record
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(records) != len(experiment.Configurations) {
		t.Fatalf("got %d records, want %d", len(records), len(experiment.Configurations))
	}
	for _, rec := range records {
		if rec.Experiment != "threshold-sweep" || rec.Config == "" {
			t.Errorf("record %+v", rec)
		}
		if _, ok := rec.Metrics["first_detect_median_s"]; !ok {
			t.Errorf("missing latency metric in %v", rec.Metrics)
		}
	}
}
