package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func tableOf(title string, rows ...[]string) *Table {
	t := &Table{Title: title, Header: []string{"k", "v"}}
	t.Rows = rows
	return t
}

// okRun is a healthy experiment that echoes its seed into one table and
// one metric.
func okRun(p Params) *Result {
	return &Result{
		Tables:  []*Table{tableOf("ok", []string{"seed", fmt.Sprint(p.Seed)})},
		Metrics: map[string]float64{"seed": float64(p.Seed)},
	}
}

func TestRegistryRegisterGetNames(t *testing.T) {
	Register("test-reg-a", "first test experiment", okRun)
	Register("test-reg-b", "second test experiment", okRun)
	run, ok := Get("test-reg-a")
	if !ok {
		t.Fatal("registered experiment not found")
	}
	if r := run(Params{Seed: 6}); r.Metrics["seed"] != 6 {
		t.Fatalf("registered run not returned: %+v", r)
	}
	if _, ok := Get("test-reg-nope"); ok {
		t.Fatal("unknown name resolved")
	}
	if got := Description("test-reg-b"); got != "second test experiment" {
		t.Fatalf("Description = %q", got)
	}
	if got := Description("test-reg-nope"); got != "" {
		t.Fatalf("Description of an unknown name = %q", got)
	}
	names := Names()
	ia, ib := -1, -1
	for i, n := range names {
		switch n {
		case "test-reg-a":
			ia = i
		case "test-reg-b":
			ib = i
		}
	}
	if ia < 0 || ib < 0 || ib != ia+1 {
		t.Fatalf("registration order not preserved: %v", names)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	Register("test-dup", "", okRun)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("test-dup", "", okRun)
}

func TestJobsCrossProductAndUnknown(t *testing.T) {
	Register("test-jobs-x", "", okRun)
	Register("test-jobs-y", "", okRun)
	jobs, err := Jobs([]string{"test-jobs-x", "test-jobs-y"}, []uint64{3, 4}, Params{Flows: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("len(jobs) = %d, want 4", len(jobs))
	}
	// Name-major order, base params preserved, seed overridden.
	if jobs[1].Name != "test-jobs-x" || jobs[1].Params.Seed != 4 || jobs[1].Params.Flows != 7 {
		t.Fatalf("jobs[1] = %v %+v", jobs[1].Name, jobs[1].Params)
	}
	if jobs[2].Name != "test-jobs-y" || jobs[2].Params.Seed != 3 {
		t.Fatalf("jobs[2] = %v %+v", jobs[2].Name, jobs[2].Params)
	}
	if _, err := Jobs([]string{"test-jobs-missing"}, nil, Params{}); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestJobsDefaultSeed(t *testing.T) {
	Register("test-jobs-def", "", okRun)
	jobs, err := Jobs([]string{"test-jobs-def"}, nil, Params{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Params.Seed != 9 {
		t.Fatalf("jobs = %+v", jobs)
	}
}

func TestPoolRunsAllInOrder(t *testing.T) {
	var jobs []Job
	for seed := uint64(1); seed <= 16; seed++ {
		jobs = append(jobs, Job{Name: "test-pool-order", Run: okRun, Params: Params{Seed: seed}})
	}
	results := (&Pool{Workers: 4}).Run(jobs)
	if len(results) != len(jobs) {
		t.Fatalf("len(results) = %d", len(results))
	}
	for i, r := range results {
		if r.Name != "test-pool-order" || r.Params.Seed != uint64(i+1) {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
		if r.Metrics["seed"] != float64(i+1) {
			t.Fatalf("result %d payload mismatch: %+v", i, r.Metrics)
		}
		if r.WallNS < 0 {
			t.Fatalf("result %d wall time not recorded", i)
		}
	}
}

// TestPoolRecoversPanicsAndErrors: a run fails only by panicking or by
// returning nil; either becomes its own Result's Error and leaves the rest
// of the batch alone.
func TestPoolRecoversPanicsAndErrors(t *testing.T) {
	jobs := []Job{
		{Name: "test-pool-boom", Run: func(Params) *Result { panic("kaboom") }, Params: Params{Seed: 1}},
		{Name: "test-pool-ok", Run: okRun, Params: Params{Seed: 2}},
		{Name: "test-pool-nil", Run: func(Params) *Result { return nil }, Params: Params{Seed: 3}},
	}
	results := (&Pool{Workers: 2}).Run(jobs)
	if !strings.Contains(results[0].Error, "kaboom") {
		t.Fatalf("panic not recovered into result: %q", results[0].Error)
	}
	if results[1].Error != "" || results[1].Metrics["seed"] != 2 {
		t.Fatalf("healthy run corrupted by neighbour's panic: %+v", results[1])
	}
	if results[2].Error == "" {
		t.Fatal("nil result not flagged")
	}
	for i, r := range results {
		if r.Name != jobs[i].Name || r.Params.Seed != jobs[i].Params.Seed {
			t.Errorf("result %d not labelled with its job: %q %+v", i, r.Name, r.Params)
		}
	}
}

func TestParamsCluster(t *testing.T) {
	for _, c := range []struct {
		domains, want int
		parallel      bool
	}{{0, 1, false}, {1, 1, false}, {3, 3, false}, {3, 3, true}} {
		cl := Params{Domains: c.domains, Parallel: c.parallel}.Cluster()
		if got := cl.N(); got != c.want {
			t.Errorf("Domains %d: cluster has %d domains, want %d", c.domains, got, c.want)
		}
		if got := cl.Parallel(); got != c.parallel {
			t.Errorf("Domains %d, Parallel %v: cluster parallel = %v", c.domains, c.parallel, got)
		}
		cl.Close()
	}
}

func TestPoolDefaultWorkersAndEmpty(t *testing.T) {
	if got := (&Pool{}).Run(nil); len(got) != 0 {
		t.Fatalf("empty batch produced %d results", len(got))
	}
	var calls atomic.Int64
	run := func(Params) *Result {
		calls.Add(1)
		return &Result{}
	}
	results := (&Pool{}).Run([]Job{{Run: run}, {Run: run}})
	if calls.Load() != 2 || len(results) != 2 {
		t.Fatalf("calls = %d, results = %d", calls.Load(), len(results))
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	res := &Result{
		Name:    "test-json",
		Params:  Params{Seed: 5, Flows: 10},
		Tables:  []*Table{tableOf("t", []string{"a", "b"})},
		Metrics: map[string]float64{"gbps": 9.5},
		WallNS:  123,
	}
	var buf bytes.Buffer
	if err := NewReport(4, []*Result{res}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ResultSchema || back.Workers != 4 || len(back.Results) != 1 {
		t.Fatalf("report round trip: %+v", back)
	}
	r := back.Results[0]
	if r.Name != "test-json" || r.Params.Seed != 5 || r.Metrics["gbps"] != 9.5 {
		t.Fatalf("result round trip: %+v", r)
	}
	if len(r.Tables) != 1 || r.Tables[0].Rows[0][1] != "b" {
		t.Fatalf("table round trip: %+v", r.Tables)
	}
}

func TestFingerprintIgnoresWallTime(t *testing.T) {
	a := &Result{Name: "x", Metrics: map[string]float64{"m": 1}, WallNS: 10}
	b := &Result{Name: "x", Metrics: map[string]float64{"m": 1}, WallNS: 99999}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("fingerprint depends on wall time")
	}
	c := &Result{Name: "x", Metrics: map[string]float64{"m": 2}, WallNS: 10}
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("fingerprint misses metric change")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"name", "v"}}
	tbl.AddRow("a", 1.5)
	tbl.AddRow("bee", 2)
	text := tbl.Render()
	if !strings.HasPrefix(text, "T\n") || !strings.Contains(text, "1.50") {
		t.Fatalf("render: %q", text)
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "name,v\n") || !strings.Contains(csv, "bee,2\n") {
		t.Fatalf("csv: %q", csv)
	}
}
