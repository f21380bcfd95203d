package harness

import (
	"bytes"
	"encoding/json"
	"errors"
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

func okExperiment(name string) Experiment {
	return NewFunc(name, func(p Params) (*Result, error) {
		return &Result{
			Tables:  []*Table{tableOf(name, []string{"seed", fmt.Sprint(p.Seed)})},
			Metrics: map[string]float64{"seed": float64(p.Seed)},
		}, nil
	})
}

func TestRegistryRegisterGetNames(t *testing.T) {
	a, b := okExperiment("test-reg-a"), okExperiment("test-reg-b")
	Register(a)
	Register(b)
	if _, ok := Get("test-reg-a"); !ok {
		t.Fatal("registered experiment not found")
	}
	if _, ok := Get("test-reg-nope"); ok {
		t.Fatal("unknown name resolved")
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
	Register(okExperiment("test-dup"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(okExperiment("test-dup"))
}

func TestJobsCrossProductAndUnknown(t *testing.T) {
	Register(okExperiment("test-jobs-x"))
	Register(okExperiment("test-jobs-y"))
	jobs, err := Jobs([]string{"test-jobs-x", "test-jobs-y"}, []uint64{3, 4}, Params{Flows: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("len(jobs) = %d, want 4", len(jobs))
	}
	// Name-major order, base params preserved, seed overridden.
	if jobs[1].Experiment.Name() != "test-jobs-x" || jobs[1].Params.Seed != 4 || jobs[1].Params.Flows != 7 {
		t.Fatalf("jobs[1] = %v %+v", jobs[1].Experiment.Name(), jobs[1].Params)
	}
	if jobs[2].Experiment.Name() != "test-jobs-y" || jobs[2].Params.Seed != 3 {
		t.Fatalf("jobs[2] = %v %+v", jobs[2].Experiment.Name(), jobs[2].Params)
	}
	if _, err := Jobs([]string{"test-jobs-missing"}, nil, Params{}); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestJobsDefaultSeed(t *testing.T) {
	Register(okExperiment("test-jobs-def"))
	jobs, err := Jobs([]string{"test-jobs-def"}, nil, Params{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Params.Seed != 9 {
		t.Fatalf("jobs = %+v", jobs)
	}
}

func TestPoolRunsAllInOrder(t *testing.T) {
	e := okExperiment("test-pool-order")
	var jobs []Job
	for seed := uint64(1); seed <= 16; seed++ {
		jobs = append(jobs, Job{Experiment: e, Params: Params{Seed: seed}})
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

func TestPoolRecoversPanicsAndErrors(t *testing.T) {
	boom := NewFunc("test-pool-boom", func(Params) (*Result, error) {
		panic("kaboom")
	})
	fail := NewFunc("test-pool-fail", func(Params) (*Result, error) {
		return nil, errors.New("deliberate failure")
	})
	nilres := NewFunc("test-pool-nil", func(Params) (*Result, error) {
		return nil, nil
	})
	jobs := []Job{
		{Experiment: boom, Params: Params{Seed: 1}},
		{Experiment: okExperiment("test-pool-ok"), Params: Params{Seed: 2}},
		{Experiment: fail, Params: Params{Seed: 3}},
		{Experiment: nilres, Params: Params{Seed: 4}},
	}
	results := (&Pool{Workers: 2}).Run(jobs)
	if !strings.Contains(results[0].Error, "kaboom") {
		t.Fatalf("panic not recovered into result: %q", results[0].Error)
	}
	if results[1].Error != "" || results[1].Metrics["seed"] != 2 {
		t.Fatalf("healthy run corrupted by neighbour's panic: %+v", results[1])
	}
	if results[2].Error != "deliberate failure" {
		t.Fatalf("error not captured: %q", results[2].Error)
	}
	if results[3].Error == "" {
		t.Fatal("nil result not flagged")
	}
}

func TestPoolDefaultWorkersAndEmpty(t *testing.T) {
	if got := (&Pool{}).Run(nil); len(got) != 0 {
		t.Fatalf("empty batch produced %d results", len(got))
	}
	var calls atomic.Int64
	e := NewFunc("test-pool-default", func(p Params) (*Result, error) {
		calls.Add(1)
		return &Result{}, nil
	})
	results := (&Pool{}).Run([]Job{{Experiment: e}, {Experiment: e}})
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
