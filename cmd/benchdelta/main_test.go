package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportToleratesV1Records feeds the delta report a real pre-PR record
// (harness-bench/v1 sweep section: no utilization, no fattree section at
// all) as the baseline against a current-schema record. Every entry both
// records carry must diff normally; every entry the old record predates
// must degrade to "incomparable" instead of failing the run or reporting
// a fabricated zero.
func TestReportToleratesV1Records(t *testing.T) {
	var sb strings.Builder
	err := report(&sb, filepath.Join("testdata", "v1.json"), filepath.Join("testdata", "v2.json"))
	if err != nil {
		t.Fatalf("report on v1 baseline: %v", err)
	}
	out := sb.String()

	for _, want := range []string{
		"forwarding ns/packet",
		"engine ns/event",
	} {
		line := lineWith(t, out, want)
		if strings.Contains(line, "incomparable") {
			t.Errorf("%q should be comparable between the fixtures:\n%s", want, line)
		}
		if !strings.Contains(line, "%") {
			t.Errorf("%q row has no percentage delta:\n%s", want, line)
		}
	}
	for _, want := range []string{
		"forwarding events/packet",
		"sweep utilization",
		"fat-tree single-engine ns/op",
		"fat-tree partitioned ns/op",
		"fat-tree windows/run",
		"fat-tree barrier ns/op",
		"fat-tree utilization",
		"fat-tree identical",
		"fluid ns/entity-epoch",
		"fluid entity-epochs/sec",
		"fluid identical",
		"fluid fidelity delta %",
	} {
		line := lineWith(t, out, want)
		if !strings.Contains(line, "incomparable") {
			t.Errorf("%q predates the v1 record and must be incomparable:\n%s", want, line)
		}
	}
	// The v1 sweep does carry speedup and identical — those stay comparable.
	if line := lineWith(t, out, "sweep speedup"); strings.Contains(line, "incomparable") {
		t.Errorf("sweep speedup exists in both fixtures:\n%s", line)
	}
	if line := lineWith(t, out, "sweep identical"); strings.Contains(line, "incomparable") {
		t.Errorf("sweep identical exists in both fixtures:\n%s", line)
	}
}

// TestReportSymmetricAbsence swaps the fixtures: a fresh v1 record against
// a current baseline must also degrade per entry, not fail.
func TestReportSymmetricAbsence(t *testing.T) {
	var sb strings.Builder
	err := report(&sb, filepath.Join("testdata", "v2.json"), filepath.Join("testdata", "v1.json"))
	if err != nil {
		t.Fatalf("report with v1 as fresh side: %v", err)
	}
	if line := lineWith(t, sb.String(), "sweep utilization"); !strings.Contains(line, "incomparable") {
		t.Errorf("sweep utilization must be incomparable when the fresh side lacks it:\n%s", line)
	}
}

// TestReportRejectsNonRecords keeps the one hard failure: unreadable input.
func TestReportRejectsNonRecords(t *testing.T) {
	var sb strings.Builder
	if err := report(&sb, filepath.Join("testdata", "v1.json"), filepath.Join("testdata", "missing.json")); err == nil {
		t.Fatal("want error for missing file")
	}
}

// renderPair runs the report over two inline record bodies.
func renderPair(t *testing.T, oldBody, newBody string) string {
	t.Helper()
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldPath, []byte(oldBody), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(newBody), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := report(&sb, oldPath, newPath); err != nil {
		t.Fatalf("report: %v", err)
	}
	return sb.String()
}

func TestReportSameSpeedHostsOmitsNormalization(t *testing.T) {
	out := renderPair(t,
		`{"schema":"s1","current":{"engine":{"ns_per_event":40},"forwarding":{"ns_per_packet":1000}}}`,
		`{"schema":"s1","current":{"engine":{"ns_per_event":42},"forwarding":{"ns_per_packet":1050}}}`)
	if strings.Contains(out, "speed-normalized") {
		t.Fatalf("normalization row printed for same-speed hosts:\n%s", out)
	}
	if !strings.Contains(out, "| forwarding ns/packet | 1000.00 | 1050.00 | +5.0% |") {
		t.Fatalf("raw forwarding row missing or wrong:\n%s", out)
	}
}

func TestReportCrossMachineNormalization(t *testing.T) {
	// The "new" host is ~2x faster (engine 20 vs 40 ns/event). Raw
	// forwarding reads as a huge improvement (1000 -> 520), but in
	// engine-event units it is 1000/40=25 vs 520/20=26: a +4% residual.
	out := renderPair(t,
		`{"schema":"s1","current":{"engine":{"ns_per_event":40},"forwarding":{"ns_per_packet":1000}}}`,
		`{"schema":"s1","current":{"engine":{"ns_per_event":20},"forwarding":{"ns_per_packet":520}}}`)
	if !strings.Contains(out, "| forwarding events-equivalent/packet (speed-normalized) | 25.00 | 26.00 | +4.0% |") {
		t.Fatalf("normalized row missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "engine churn differs -50% between hosts") {
		t.Fatalf("speed hint missing:\n%s", out)
	}
	// The raw row still prints — normalization augments, never hides data.
	if !strings.Contains(out, "| forwarding ns/packet | 1000.00 | 520.00 | -48.0% |") {
		t.Fatalf("raw forwarding row should still print:\n%s", out)
	}
}

func TestReportNormalizationNeedsBothEngines(t *testing.T) {
	// A baseline that predates the engine section can't be normalized;
	// the report must not invent a factor.
	out := renderPair(t,
		`{"schema":"s1","current":{"forwarding":{"ns_per_packet":1000}}}`,
		`{"schema":"s1","current":{"engine":{"ns_per_event":20},"forwarding":{"ns_per_packet":520}}}`)
	if strings.Contains(out, "speed-normalized") {
		t.Fatalf("normalization row printed without baseline engine data:\n%s", out)
	}
}

// TestReportFatTreeSyncRowsPresenceAware pins the per-row degradation for
// the sync-cost columns: a baseline whose fattree section carries windows
// but predates barrier_ns/utilization diffs the windows row normally while
// the newer rows degrade to incomparable.
func TestReportFatTreeSyncRowsPresenceAware(t *testing.T) {
	out := renderPair(t,
		`{"schema":"s1","current":{"fattree":{"windows":2000,"single_ns":10,"partitioned_ns":20,"identical":true}}}`,
		`{"schema":"s1","current":{"fattree":{"windows":1000,"barrier_ns":5000000,"utilization":0.5,"single_ns":10,"partitioned_ns":20,"identical":true}}}`)
	if line := lineWith(t, out, "fat-tree windows/run"); !strings.Contains(line, "-50.0%") {
		t.Errorf("windows row should diff normally:\n%s", line)
	}
	if line := lineWith(t, out, "fat-tree barrier ns/op"); !strings.Contains(line, "incomparable") {
		t.Errorf("barrier row must degrade when the baseline predates it:\n%s", line)
	}
	if line := lineWith(t, out, "fat-tree utilization"); !strings.Contains(line, "incomparable") {
		t.Errorf("utilization row must degrade when the baseline predates it:\n%s", line)
	}
}

// TestReportFluidRowsPresenceAware pins the fluid-section behaviour both
// ways: against a baseline that predates the section every fluid row
// degrades to incomparable, and once both records carry it the rows diff
// normally with the entity counts surfaced in the throughput label.
func TestReportFluidRowsPresenceAware(t *testing.T) {
	withFluid := `{"schema":"s1","current":{"fluid":{` +
		`"scale":{"entities":1000000,"ns_per_entity_epoch":114,"entity_epochs_per_sec":8700000,"identical":true},` +
		`"fidelity_delta_pct":1.45,"fidelity_tolerance_pct":5}}}`
	without := `{"schema":"s1","current":{"engine":{"ns_per_event":40}}}`

	out := renderPair(t, without, withFluid)
	for _, name := range []string{
		"fluid ns/entity-epoch",
		"fluid entity-epochs/sec",
		"fluid identical",
		"fluid fidelity delta %",
	} {
		if line := lineWith(t, out, name); !strings.Contains(line, "incomparable") {
			t.Errorf("%q must degrade when the baseline predates the fluid section:\n%s", name, line)
		}
	}

	newer := `{"schema":"s1","current":{"fluid":{` +
		`"scale":{"entities":1000000,"ns_per_entity_epoch":100,"entity_epochs_per_sec":10000000,"identical":true},` +
		`"fidelity_delta_pct":2.9,"fidelity_tolerance_pct":5}}}`
	out = renderPair(t, withFluid, newer)
	if line := lineWith(t, out, "fluid ns/entity-epoch (1000000→1000000 entities)"); !strings.Contains(line, "-12.3%") {
		t.Errorf("fluid throughput row should diff normally:\n%s", line)
	}
	if line := lineWith(t, out, "fluid fidelity delta %"); !strings.Contains(line, "+100.0%") {
		t.Errorf("fidelity row should diff normally:\n%s", line)
	}
	if line := lineWith(t, out, "fluid identical"); strings.Contains(line, "incomparable") {
		t.Errorf("fluid identical exists on both sides:\n%s", line)
	}
}

// TestReportFluidHeapAndSkipRowsPresenceAware pins the next fluid schema
// generation: heap bytes/entity, quiescent-skip %, and the 10M-entity
// section. A baseline whose fluid section predates them keeps its existing
// rows comparable while every new row degrades; once both sides carry
// them, they diff normally.
func TestReportFluidHeapAndSkipRowsPresenceAware(t *testing.T) {
	older := `{"schema":"s1","current":{"fluid":{` +
		`"scale":{"entities":1000000,"ns_per_entity_epoch":114,"entity_epochs_per_sec":8700000,"identical":true},` +
		`"fidelity_delta_pct":1.45}}}`
	newer := `{"schema":"s1","current":{"fluid":{` +
		`"scale":{"entities":1000000,"ns_per_entity_epoch":50,"entity_epochs_per_sec":20000000,` +
		`"heap_bytes_per_entity":280,"identical":true},` +
		`"scale_10m":{"entities":10000000,"ns_per_entity_epoch":31,"entity_epochs_per_sec":32000000,` +
		`"heap_bytes_per_entity":84,"quiescent_skip_pct":18.8,"identical":true},` +
		`"fidelity_delta_pct":1.45}}}`

	out := renderPair(t, older, newer)
	if line := lineWith(t, out, "fluid ns/entity-epoch (1000000→1000000 entities)"); strings.Contains(line, "incomparable") {
		t.Errorf("existing throughput row must stay comparable:\n%s", line)
	}
	for _, name := range []string{
		"fluid heap bytes/entity",
		"fluid quiescent-skip %",
		"fluid 10M ns/entity-epoch",
		"fluid 10M heap bytes/entity",
		"fluid 10M quiescent-skip %",
		"fluid 10M identical",
	} {
		if line := lineWith(t, out, name); !strings.Contains(line, "incomparable") {
			t.Errorf("%q must degrade against a baseline that predates it:\n%s", name, line)
		}
	}

	newest := `{"schema":"s1","current":{"fluid":{` +
		`"scale":{"entities":1000000,"ns_per_entity_epoch":45,"entity_epochs_per_sec":22000000,` +
		`"heap_bytes_per_entity":140,"identical":true},` +
		`"scale_10m":{"entities":10000000,"ns_per_entity_epoch":31,"entity_epochs_per_sec":32000000,` +
		`"heap_bytes_per_entity":84,"quiescent_skip_pct":37.6,"identical":true},` +
		`"fidelity_delta_pct":1.45}}}`
	out = renderPair(t, newer, newest)
	if line := lineWith(t, out, "fluid heap bytes/entity"); !strings.Contains(line, "-50.0%") {
		t.Errorf("heap row should diff normally:\n%s", line)
	}
	if line := lineWith(t, out, "fluid 10M quiescent-skip %"); !strings.Contains(line, "+100.0%") {
		t.Errorf("10M skip row should diff normally:\n%s", line)
	}
	if line := lineWith(t, out, "fluid 10M identical"); strings.Contains(line, "incomparable") {
		t.Errorf("10M identical exists on both sides:\n%s", line)
	}
}

// lineWith returns the single report line containing the substring.
func lineWith(t *testing.T, out, sub string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, sub) {
			return line
		}
	}
	t.Fatalf("report has no line containing %q:\n%s", sub, out)
	return ""
}
