package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"lifeguard/internal/experiment"
)

// loadGolden reads a checked-in golden record array strictly: unknown
// fields are rejected, so a renamed or removed struct field fails here
// before it bit-rots the docs.
func loadGolden(t *testing.T, path string) []experiment.Record {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var records []experiment.Record
	if err := dec.Decode(&records); err != nil {
		t.Fatalf("%s no longer matches the record schema: %v", path, err)
	}
	// Every record carries the harness stamp: the run's wall-clock
	// duration (the BENCH perf trajectory) and its cell count.
	for i, rec := range records {
		if rec.Wall <= 0 {
			t.Errorf("%s record %d: wall_s = %g, want > 0", path, i, rec.Wall)
		}
		if rec.Cells <= 0 {
			t.Errorf("%s record %d: cells = %d, want > 0", path, i, rec.Cells)
		}
	}
	return records
}

// TestGoldenChaosRecordSchema unmarshals the checked-in golden chaos
// matrix against the documented schema (docs/LIFEBENCH.md): one record
// per (scenario, configuration) cell, every documented param and
// metric key present, the full scenario and configuration axes
// covered, and the fault engine's duplication/reordering counters
// demonstrably flowing end to end (non-zero in the lossy cells).
func TestGoldenChaosRecordSchema(t *testing.T) {
	records := loadGolden(t, "testdata/chaos_record_golden.json")
	scenarios := experiment.ChaosScenarioNames()
	wantCells := len(scenarios) * len(experiment.Configurations)
	if len(records) != wantCells {
		t.Fatalf("golden holds %d records, want %d (scenarios × configurations)", len(records), wantCells)
	}

	fixedParams := []string{"scenario", "members", "victims", "crashes", "fault_for_s", "crash_at_s"}
	fixedMetrics := []string{
		"fp", "fp_healthy", "victim_deaths",
		"crashes_detected", "crash_detect_median_s", "crash_detect_max_s",
		"suspicions", "refuted", "refute_median_s",
		"msgs_sent", "bytes_sent",
		"duplicated", "reordered", "fault_drops",
	}

	sawScenario := map[string]bool{}
	sawConfig := map[string]bool{}
	lossyCountersEngaged := false
	for i, rec := range records {
		if rec.Experiment != "chaos" {
			t.Errorf("record %d: experiment %q, want chaos", i, rec.Experiment)
		}
		for _, key := range fixedParams {
			if _, ok := rec.Params[key]; !ok {
				t.Errorf("record %d: documented param %q missing", i, key)
			}
		}
		for _, key := range fixedMetrics {
			if _, ok := rec.Metrics[key]; !ok {
				t.Errorf("record %d: documented metric %q missing", i, key)
			}
		}
		scenario, ok := rec.Params["scenario"].(string)
		if !ok {
			t.Fatalf("record %d: scenario param is %T, want string", i, rec.Params["scenario"])
		}
		sawScenario[scenario] = true
		sawConfig[rec.Config] = true
		if scenario == "lossy-link" && rec.Metrics["duplicated"] > 0 && rec.Metrics["reordered"] > 0 {
			lossyCountersEngaged = true
		}
		if rec.Metrics["crashes_detected"] == 0 {
			t.Errorf("record %d (%s/%s): no crashes detected", i, scenario, rec.Config)
		}
	}
	for _, name := range scenarios {
		if !sawScenario[name] {
			t.Errorf("scenario %q missing from the golden matrix", name)
		}
	}
	for _, proto := range experiment.Configurations {
		if !sawConfig[proto.Name] {
			t.Errorf("configuration %q missing from the golden matrix", proto.Name)
		}
	}
	if !lossyCountersEngaged {
		t.Error("lossy-link cells show no duplicated/reordered packets — fault counters not flowing")
	}
}

// TestGoldenRestartRecordSchema unmarshals the checked-in golden
// rolling-restart records against the documented schema
// (docs/LIFEBENCH.md): one record per Table I configuration, every
// documented param and metric key present, and the rejoin machinery
// demonstrably working (every restarted member rejoined).
func TestGoldenRestartRecordSchema(t *testing.T) {
	records := loadGolden(t, "testdata/restart_record_golden.json")
	if len(records) != len(experiment.Configurations) {
		t.Fatalf("golden holds %d records, want %d (one per configuration)", len(records), len(experiment.Configurations))
	}

	fixedParams := []string{"members", "waves", "per_wave", "down_for_s", "stagger_s", "wave_every_s", "settle_s"}
	fixedMetrics := []string{
		"restarts", "rejoined", "fp", "fp_healthy",
		"rejoin_median_s", "rejoin_max_s",
		"msgs_sent", "bytes_sent",
	}

	sawConfig := map[string]bool{}
	for i, rec := range records {
		if rec.Experiment != "rolling-restart" {
			t.Errorf("record %d: experiment %q, want rolling-restart", i, rec.Experiment)
		}
		for _, key := range fixedParams {
			if _, ok := rec.Params[key]; !ok {
				t.Errorf("record %d: documented param %q missing", i, key)
			}
		}
		for _, key := range fixedMetrics {
			if _, ok := rec.Metrics[key]; !ok {
				t.Errorf("record %d: documented metric %q missing", i, key)
			}
		}
		sawConfig[rec.Config] = true
		if rec.Metrics["restarts"] == 0 {
			t.Errorf("record %d (%s): no members restarted", i, rec.Config)
		}
		if rec.Metrics["rejoined"] != rec.Metrics["restarts"] {
			t.Errorf("record %d (%s): %g of %g restarted members rejoined",
				i, rec.Config, rec.Metrics["rejoined"], rec.Metrics["restarts"])
		}
	}
	for _, proto := range experiment.Configurations {
		if !sawConfig[proto.Name] {
			t.Errorf("configuration %q missing from the golden records", proto.Name)
		}
	}
}
