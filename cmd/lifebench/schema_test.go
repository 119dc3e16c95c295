package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
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

// TestGoldenWANRecordSchema unmarshals the checked-in golden WAN record
// against the documented schema (docs/LIFEBENCH.md): the top-level
// record shape must match exactly (unknown fields are rejected, so a
// renamed or removed struct field fails here before it bit-rots the
// doc), and every fixed param/metric key the document lists must be
// present with a sane value.
func TestGoldenWANRecordSchema(t *testing.T) {
	wanRecords := loadGolden(t, "testdata/wan_record_golden.json")
	if len(wanRecords) != 1 {
		t.Fatalf("golden holds %d records, want 1", len(wanRecords))
	}

	fixedParams := []string{"members", "zones", "fail_per_zone", "converge_s"}
	fixedMetrics := []string{
		"coord_rel_err_median", "coord_rel_err_p99", "coord_abs_err_mean_s",
		"pairs_scored", "fp", "fp_healthy",
		"detect_cross_zone_median_s", "detect_cross_zone_p99_s",
		"msgs_sent", "bytes_sent",
		"obs_rtt_samples", "obs_rtt_p50_err_median", "obs_rtt_p90_err_median",
	}
	perZonePrefixes := []string{
		"members_", "detect_median_s_", "detect_max_s_", "detect_cross_zone_median_s_",
		"detected_", "failed_", "fp_",
	}
	// Telemetry-derived per-zone-pair quantile errors: 10 unordered
	// pairs (including intra-zone) on the canonical 4-zone WAN.
	perPairPrefixes := []string{"obs_rtt_p50_err_", "obs_rtt_p90_err_"}

	for i, rec := range wanRecords {
		if rec.Experiment != "wan" {
			t.Errorf("record %d: experiment %q, want wan", i, rec.Experiment)
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
		for _, prefix := range perZonePrefixes {
			found := 0
			for key := range rec.Metrics {
				if strings.HasPrefix(key, prefix) {
					found++
				}
			}
			// The golden run uses the canonical 4-zone WAN. fp_ also
			// prefixes fp_healthy; only the per-zone count matters.
			if found < 4 {
				t.Errorf("record %d: %d per-zone metrics with prefix %q, want ≥ 4", i, found, prefix)
			}
		}
		if rec.Metrics["obs_rtt_samples"] <= 0 {
			t.Errorf("record %d: obs_rtt_samples = %g, want > 0 (telemetry not flowing)", i, rec.Metrics["obs_rtt_samples"])
		}
		for _, prefix := range perPairPrefixes {
			found := 0
			for key := range rec.Metrics {
				if strings.HasPrefix(key, prefix) && !strings.HasSuffix(key, "_median") {
					found++
				}
			}
			if found != 10 {
				t.Errorf("record %d: %d per-pair metrics with prefix %q, want 10", i, found, prefix)
			}
		}
	}
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
