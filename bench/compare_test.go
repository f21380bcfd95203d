package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "work_per_s", Unit: "work/s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 100.5}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight, tight, verdictOK},
		{"lower metric up 5%: inside the bound", lower, tight, scale(tight, 1.05), verdictOK},
		{"lower metric up 20%", lower, tight, scale(tight, 1.20), verdictWorse},
		{"lower metric down 20% is an improvement", lower, tight, scale(tight, 0.80), verdictOK},
		{"higher metric down 20%", higher, tight, scale(tight, 0.80), verdictWorse},
		{"higher metric up 20% is an improvement", higher, tight, scale(tight, 1.20), verdictOK},
		{"repeats disagree by more than the bound", lower, []float64{100, 140, 70, 120, 90}, tight, verdictUnresolved},
		{"noisy B hides even a large shift", lower, tight, []float64{150, 220, 110, 190, 130}, verdictUnresolved},
	} {
		if got := judge(tc.def, tc.a, tc.b); got.Verdict != tc.want {
			t.Errorf("%s: verdict %s, want %s (delta %.3f, spread %.3f)", tc.name, got.Verdict, tc.want, got.Delta, got.Spread)
		}
	}
	if row := judge(higher, tight, scale(tight, 0.80)); row.Delta < 0.19 || row.Delta > 0.21 {
		t.Errorf("a 20%% throughput loss should read as worse by 0.20, got %g", row.Delta)
	}
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func TestCompareSetsFromFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, workPerS []float64, trace int) string {
		path := filepath.Join(dir, name)
		for _, v := range workPerS {
			r := record{Workload: "fwd_ccmix", Seed: 1, Trace: trace, result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"work_per_s": {v, "work/s"}, "setup_s": {1e-4, "s"}}}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", []float64{100, 101, 99, 100}, 0)
	b := write("b.jsonl", []float64{70, 71, 69, 70}, 0)
	write("b.jsonl", []float64{1, 1, 1, 1}, 1) // traced records are not end-to-end data

	var out bytes.Buffer
	if code := compare(a, b, &out); code != 1 {
		t.Errorf("exit code %d, want 1: B's throughput is 30%% down\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) || !strings.Contains(out.String(), "work_per_s") {
		t.Errorf("table lacks the worse row:\n%s", out.String())
	}
	out.Reset()
	if code := compare(a, a, &out); code != 0 {
		t.Errorf("a set compared with itself exits %d:\n%s", code, out.String())
	}
	if code := compare(a, filepath.Join(dir, "missing.jsonl"), &out); code != 2 {
		t.Errorf("missing file exits %d, want 2", code)
	}
}

// TestBenchmarkJSON fails when BENCHMARK.json is not what `bench list
// -json` writes, and checks the tables it is written from against the
// limits of the benchmark contract, which refuses a file outside them.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . list -json > ../BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}

	seen := make(map[string]bool)
	checkName := func(name string) {
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if len(name) == 0 || len(name) > 64 || !isAlnum(name[0]) || strings.Trim(name, nameChars) != "" {
			t.Errorf("name %q breaks the naming rule", name)
		}
	}
	for _, w := range workloads {
		checkName(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), layerDefs()...) {
		checkName(d.Name)
		if len(d.Unit) == 0 || len(d.Unit) > 16 || strings.Trim(d.Unit, nameChars+"/%") != "" {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0] != (metricDef{"setup_s", "s", "lower", endToEnd[0].Bound}) {
		t.Error("end_to_end must carry setup_s in s, lower is better")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics: outside the contract", len(workloads), len(endToEnd), len(perLayer))
	}
}

const nameChars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-"

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
