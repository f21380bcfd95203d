package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// A set is a file of `bench run -json` records: every workload, run as
// many times as the comparison should have repeats. compare lines two sets
// up row by row.

// verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one (workload, metric) comparison.
type compareRow struct {
	Workload, Metric string
	A, B             float64 // medians of the two sets' repeats
	Delta            float64 // (B-A)/A, signed so that positive is worse
	Spread           float64 // the wider of the two sets' own IQR/median
	Bound            float64
	Verdict          string
}

// judge compares two sets of repeats of one end-to-end metric. A row is
// unresolved when either set's own repeat-to-repeat spread is wider than
// the bound — the data cannot tell a regression of that size from noise —
// worse when B's median is worse than A's by more than the bound, and ok
// otherwise.
func judge(def metricDef, a, b []float64) compareRow {
	row := compareRow{Metric: def.Name, A: median(a), B: median(b), Bound: def.Bound}
	if row.A != 0 {
		row.Delta = (row.B - row.A) / math.Abs(row.A)
	}
	if def.Better == "higher" {
		row.Delta = -row.Delta
	}
	row.Spread = math.Max(spread(a), spread(b))
	switch {
	case row.Spread > def.Bound:
		row.Verdict = verdictUnresolved
	case row.Delta > def.Bound:
		row.Verdict = verdictWorse
	default:
		row.Verdict = verdictOK
	}
	return row
}

// readSet loads a set file and groups the untraced records' metric values
// by workload and metric name.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if set[r.Workload] == nil {
			set[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], v.Value)
		}
	}
	return set, sc.Err()
}

// compareSets builds every (workload, end-to-end metric) row both sets
// have, in workload then metric order.
func compareSets(a, b map[string]map[string][]float64) []compareRow {
	var names []string
	for wl := range a {
		if b[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	var rows []compareRow
	for _, wl := range names {
		for _, def := range endToEnd {
			if len(a[wl][def.Name]) == 0 || len(b[wl][def.Name]) == 0 {
				continue
			}
			row := judge(def, a[wl][def.Name], b[wl][def.Name])
			row.Workload = wl
			rows = append(rows, row)
		}
	}
	return rows
}

// compare prints the table and returns the exit code: 1 if any row is
// worse, else 0. Unresolved rows are reported, not failed: they say the
// sets need more repeats or a quieter host.
func compare(pathA, pathB string, w io.Writer) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %9s %9s %7s  %s\n",
		"workload", "metric", "A median", "B median", "worse by", "spread", "bound", "verdict")
	code := 0
	for _, r := range compareSets(a, b) {
		fmt.Fprintf(w, "%-15s %-20s %14.6g %14.6g %+8.2f%% %8.2f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Delta, 100*r.Spread, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictWorse {
			code = 1
		}
	}
	return code
}
