package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// check runs the correctness half of the benchmark without the timing
// protocol: a few iterations of each named workload with every invariant
// on. There are no golden fingerprints — they would freeze the model for
// every later change — only properties that must hold for any correct
// model: all iterations of a seed digest identically; on a drained network
// every switch and pipe balances (offered = delivered + dropped, nothing
// queued) and every fluid lane's offered bytes equal delivered + dropped
// to 1e-9; share error stays under 10 %; every wire response is OK; the
// wire-driven daemon session fingerprints exactly like its in-process
// ScriptAt replay; and the next seed digests differently. `bench run` ends
// with the same checks.
func check(name string, seed uint64, w io.Writer) int {
	if name != "" && findWorkload(name) == nil {
		fmt.Fprintf(w, "unknown workload %q\n", name)
		return 2
	}
	singleP()
	code := 0
	for i := range workloads {
		wl := &workloads[i]
		if name != "" && wl.name != name {
			continue
		}
		ls := iterateFor(wl, seed, 0, 2, func(int) *recorder { return nil })
		ls.crossChecks(wl, seed, nil)
		verdict := "PASS"
		if len(ls.violations) > 0 {
			verdict, code = "FAIL", 1
		}
		fmt.Fprintf(w, "%-15s seed %d  %s  ops_attempted %d  ops_failed %d\n", wl.name, seed, verdict, ls.attempted, ls.failed)
		for _, v := range ls.violations {
			fmt.Fprintf(w, "  %s\n", v)
		}
	}
	return code
}

// list prints every workload and every metric with unit, direction and,
// for the end-to-end ones, bound.
func list(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-15s work unit %-14s %s\n", wl.name, wl.unit, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (bench run -trace 0):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-36s %-7s %-6s is better, bound %.1f %%\n", d.Name, d.Unit, d.Better, 100*d.Bound)
	}
	fmt.Fprintln(w, "per-layer metrics (bench run -trace 1):")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-36s %-7s %-6s is better\n", d.Name, d.Unit, d.Better)
	}
}

// benchmarkJSON renders BENCHMARK.json — exactly the keys of the benchmark
// contract — from the program's own tables, so the file is never edited by
// hand: `bench list -json > ../BENCHMARK.json`.
func benchmarkJSON() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	file := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricDef     `json:"end_to_end"`
		PerLayer   []metricDef     `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   layerDefs(),
	}
	for _, wl := range workloads {
		file.Workloads = append(file.Workloads, workloadEntry{wl.name, wl.why})
	}
	b, err := json.MarshalIndent(file, "", "  ")
	return append(b, '\n'), err
}
