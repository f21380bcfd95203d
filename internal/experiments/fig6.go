package experiments

import (
	"fmt"

	"aqueue/internal/harness"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
)

// VMCounts is the x-axis of Figures 6 and 7: the number of VMs of the
// entity whose VM count grows.
var VMCounts = []int{1, 2, 4, 8}

// Fig6 reproduces Figure 6: one distributed application (entity) runs the
// web-search trace over 1..8 VMs; its workload completion time under each
// approach is normalized to PQ, which fully utilizes the network. AQ
// should track PQ; PRL and DRL should degrade as the VM count grows
// because their per-VM allocations mismatch the trace's bursty demand.
func Fig6(p harness.Params) *harness.Result {
	t := &harness.Table{
		Title:  "Figure 6: normalized workload completion time vs number of VMs",
		Header: []string{"#VMs", "PQ", "AQ", "PRL", "DRL"},
	}
	for _, k := range VMCounts {
		spec := []wlSpec{{name: "app", cc: "dctcp", vms: k, weight: 1, flows: p.Flows}}
		base := wlRun(p, PQ, spec)[0]
		row := []any{fmt.Sprint(k), 1.0}
		for _, ap := range []Approach{AQ, PRL, DRL} {
			ct := wlRun(p, ap, spec)[0]
			row = append(row, float64(ct)/float64(base))
		}
		t.AddRow(row...)
	}
	return tables(t)
}

// Fig7 reproduces Figure 7: entity A (1 VM) and entity B (1..8 VMs) run
// the same web-search trace with equal weights; entity fairness is the
// ratio of the shorter workload completion time to the longer. AQ holds it
// near 1; PQ favours B (flow-level fairness rewards its concurrency); PRL
// and DRL penalize B (fixed/laggy per-VM splits).
func Fig7(p harness.Params) *harness.Result {
	t := &harness.Table{
		Title:  "Figure 7: entity fairness vs number of VMs in entity B",
		Header: []string{"#VMs in B", "PQ", "AQ", "PRL", "DRL"},
	}
	for _, k := range VMCounts {
		specs := []wlSpec{
			{name: "A", cc: "dctcp", vms: 1, weight: 1, flows: p.Flows},
			{name: "B", cc: "dctcp", vms: k, weight: 1, flows: p.Flows},
		}
		row := []any{fmt.Sprint(k)}
		for _, ap := range Approaches {
			ct := wlRun(p, ap, specs)
			row = append(row, fairness(ct))
		}
		t.AddRow(row...)
	}
	return tables(t)
}

// fairness is the paper's entity-fairness metric (stats.MinMaxRatio) over
// the entities' completion times.
func fairness(ct []sim.Time) float64 {
	xs := make([]float64, len(ct))
	for i, c := range ct {
		xs[i] = float64(c)
	}
	return stats.MinMaxRatio(xs)
}

// Fig10CCSettings are the CC pairings of Figure 10 (two entities, four VMs
// each).
var Fig10CCSettings = [][2]string{
	{"cubic", "dctcp"},
	{"newreno", "dctcp"},
	{"cubic", "swift"},
	{"dctcp", "swift"},
}

// Fig10 reproduces Figure 10: entity fairness (a) and total workload
// completion time (b) for two 4-VM entities under different CC mixes and
// all four approaches. Completion is reported normalized to PQ.
func Fig10(p harness.Params) *harness.Result {
	fair := &harness.Table{
		Title:  "Figure 10(a): entity fairness under different CC settings",
		Header: []string{"CC setting", "PQ", "AQ", "PRL", "DRL"},
	}
	total := &harness.Table{
		Title:  "Figure 10(b): total workload completion time (normalized to PQ)",
		Header: []string{"CC setting", "PQ", "AQ", "PRL", "DRL"},
	}
	for _, pair := range Fig10CCSettings {
		specs := []wlSpec{
			{name: "A", cc: pair[0], vms: 4, weight: 1, flows: p.Flows},
			{name: "B", cc: pair[1], vms: 4, weight: 1, flows: p.Flows},
		}
		frow := []any{pair[0] + "+" + pair[1]}
		trow := []any{pair[0] + "+" + pair[1]}
		var base sim.Time
		for _, ap := range Approaches {
			ct := wlRun(p, ap, specs)
			frow = append(frow, fairness(ct))
			tot := ct[0]
			if ct[1] > tot {
				tot = ct[1]
			}
			if ap == PQ {
				base = tot
			}
			trow = append(trow, float64(tot)/float64(base))
		}
		fair.AddRow(frow...)
		total.AddRow(trow...)
	}
	return tables(fair, total)
}
