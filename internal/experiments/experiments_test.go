package experiments

import (
	"strings"
	"testing"

	"aqueue/internal/harness"
	"aqueue/internal/sim"
)

func TestApproachString(t *testing.T) {
	want := map[Approach]string{PQ: "PQ", AQ: "AQ", PRL: "PRL", DRL: "DRL"}
	for a, s := range want {
		if a.String() != s {
			t.Fatalf("%d.String() = %q", int(a), a.String())
		}
	}
	if Approach(9).String() != "Approach(9)" {
		t.Fatal("unknown approach string")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &harness.Table{Title: "T", Header: []string{"a", "long-header"}}
	tbl.AddRow("x", 1.23456)
	tbl.AddRow("longer-cell", "y")
	out := tbl.Render()
	if !strings.Contains(out, "T\n") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "1.23") {
		t.Fatalf("float not formatted: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("rendered %d lines, want 5", len(lines))
	}
	// All rows align to the same width.
	if len(lines[1]) != len(lines[2]) && len(lines[2]) != len(lines[3]) {
		t.Fatalf("misaligned table:\n%s", out)
	}
}

func TestFig3SurplusAmplification(t *testing.T) {
	r := Fig3(6)
	if len(r.PeaksD) != 6 || len(r.PeaksA) != 6 {
		t.Fatalf("peak counts %d/%d", len(r.PeaksD), len(r.PeaksA))
	}
	// The strawman's later peaks overshoot far beyond the A-Gap's.
	if r.PeaksD[2] < 1.4*r.PeaksA[2] {
		t.Fatalf("strawman peak %v not amplified vs A-Gap peak %v",
			r.PeaksD[2], r.PeaksA[2])
	}
	// The A-Gap peaks stay essentially flat.
	for i := 1; i < len(r.PeaksA); i++ {
		if r.PeaksA[i] > r.PeaksA[0]*1.2 {
			t.Fatalf("A-Gap peaks grew: %v", r.PeaksA)
		}
	}
}

func TestCCShareAQEqualizesDCTCPvsCUBIC(t *testing.T) {
	entities := []ccEntity{{cc: "cubic", flows: 5}, {cc: "dctcp", flows: 5}}
	p := harness.Params{Horizon: 80 * sim.Millisecond}
	pq := runCCShare(p, PQ, entities)
	if pq[1].Gbps < 2*pq[0].Gbps {
		t.Fatalf("PQ: DCTCP %v vs CUBIC %v — expected DCTCP dominance",
			pq[1].Gbps, pq[0].Gbps)
	}
	aq := runCCShare(p, AQ, entities)
	ratio := aq[0].Gbps / aq[1].Gbps
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("AQ split %.2f:%.2f, want near equal", aq[0].Gbps, aq[1].Gbps)
	}
	if aq[0].Gbps+aq[1].Gbps < 8.5 {
		t.Fatalf("AQ total %.2f Gbps, network under-utilized", aq[0].Gbps+aq[1].Gbps)
	}
}

func TestCCSharePQStarvesSwift(t *testing.T) {
	entities := []ccEntity{{cc: "cubic", flows: 5}, {cc: "swift", flows: 5}}
	p := harness.Params{Horizon: 80 * sim.Millisecond}
	pq := runCCShare(p, PQ, entities)
	if pq[1].Gbps > pq[0].Gbps/4 {
		t.Fatalf("PQ: Swift %v vs CUBIC %v — expected starvation", pq[1].Gbps, pq[0].Gbps)
	}
	aq := runCCShare(p, AQ, entities)
	if aq[1].Gbps < 4.0 {
		t.Fatalf("AQ: Swift only achieved %v Gbps of its 5 Gbps share", aq[1].Gbps)
	}
}

func TestFig8WeightedIsolation(t *testing.T) {
	p := harness.Params{Horizon: 60 * sim.Millisecond}
	pqA, pqB := fig8Run(p, PQ, 16, 1, 1)
	if pqB < 3*pqA {
		t.Fatalf("PQ with 16:1 flows split %.2f/%.2f, want B dominant", pqA, pqB)
	}
	aqA, aqB := fig8Run(p, AQ, 16, 1, 1)
	if r := aqA / aqB; r < 0.9 || r > 1.12 {
		t.Fatalf("AQ 1:1 split %.2f/%.2f", aqA, aqB)
	}
	wA, wB := fig8Run(p, AQ, 16, 1, 2)
	if r := wB / wA; r < 1.7 || r > 2.3 {
		t.Fatalf("AQ 1:2 split %.2f/%.2f, want ratio ~2", wA, wB)
	}
}

func TestFig9ActiveSetSharing(t *testing.T) {
	p := harness.Params{Horizon: 160 * sim.Millisecond} // 40 ms phases
	res := fig9Run(p, AQ)
	// In the final phase all 5 entities are active: each should sit near
	// 10/5 = 2 Gbps, including the UDP entity.
	last := len(Fig9Entities)
	for i := range Fig9Entities {
		got := res.Series[i][last]
		if got < 1.4 || got > 2.7 {
			t.Fatalf("entity %d final-phase rate %.2f Gbps, want ~2", i, got)
		}
	}
	// First phase: only entity 0 active, near full rate.
	if res.Series[0][0] < 8 {
		t.Fatalf("single active entity got %.2f Gbps", res.Series[0][0])
	}

	pq := fig9Run(p, PQ)
	// Under PQ the UDP entity (index 2) dominates once it starts.
	if pq.Series[2][last] < 6 {
		t.Fatalf("PQ: UDP got %.2f Gbps in final phase, expected dominance", pq.Series[2][last])
	}
}

func TestWorkloadCompletionAQTracksPQ(t *testing.T) {
	specs := []wlSpec{{name: "app", cc: "cubic", vms: 4, weight: 1, flows: 30}}
	p := harness.Params{Seed: 3}
	base := wlRun(p, PQ, specs)[0]
	aq := wlRun(p, AQ, specs)[0]
	ratio := float64(aq) / float64(base)
	if ratio > 1.2 || ratio < 0.8 {
		t.Fatalf("AQ/PQ completion ratio %.2f, want ~1", ratio)
	}
	prl := wlRun(p, PRL, specs)[0]
	if float64(prl)/float64(base) < 1.1 {
		t.Fatalf("PRL at 4 VMs ratio %.2f, expected slowdown", float64(prl)/float64(base))
	}
}

func TestWorkloadFairnessAQ(t *testing.T) {
	specs := []wlSpec{
		{name: "A", cc: "cubic", vms: 1, weight: 1, flows: 60},
		{name: "B", cc: "cubic", vms: 4, weight: 1, flows: 60},
	}
	aq := fairness(wlRun(harness.Params{Seed: 5}, AQ, specs))
	if aq < 0.78 {
		t.Fatalf("AQ entity fairness %.2f, want near 1", aq)
	}
}

func TestTable3AQHoldsProfile(t *testing.T) {
	row := table3Run(harness.Params{Horizon: 150 * sim.Millisecond, Seed: 7}, AQ)
	if row.OutLo < 4.2 || row.OutHi > 5.8 {
		t.Fatalf("AQ outbound %.2f~%.2f, want ~5", row.OutLo, row.OutHi)
	}
	if row.InLo < 4.2 || row.InHi > 5.8 {
		t.Fatalf("AQ inbound %.2f~%.2f, want ~5", row.InLo, row.InHi)
	}
}

func TestTable3PRLViolatesInbound(t *testing.T) {
	row := table3Run(harness.Params{Horizon: 150 * sim.Millisecond, Seed: 7}, PRL)
	if row.OutHi > 6 {
		t.Fatalf("PRL outbound %.2f~%.2f, want capped at ~5", row.OutLo, row.OutHi)
	}
	if row.InLo < 10 {
		t.Fatalf("PRL inbound %.2f~%.2f, expected ~15 (3 senders x 5G)", row.InLo, row.InHi)
	}
}

func TestTable3PQUnbounded(t *testing.T) {
	row := table3Run(harness.Params{Horizon: 150 * sim.Millisecond, Seed: 7}, PQ)
	if row.InHi < 15 {
		t.Fatalf("PQ inbound %.2f~%.2f, expected near link capacity", row.InLo, row.InHi)
	}
}

func TestTable4BehaviourPreserved(t *testing.T) {
	p := harness.Params{Horizon: 120 * sim.Millisecond}
	pqG, pqD := table4Run(p, "cubic", false)
	aqG, aqD := table4Run(p, "cubic", true)
	if pqG < 22 || aqG < 22 {
		t.Fatalf("throughput PQ %.2f / AQ %.2f, want ~24", pqG, aqG)
	}
	p95pq := pqD.Quantile(0.95)
	p95aq := aqD.Quantile(0.95)
	rel := (p95aq - p95pq) / p95pq
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.15 {
		t.Fatalf("CUBIC p95 delay PQ %v vs AQ %v (rel %.2f), want close",
			sim.Time(p95pq), sim.Time(p95aq), rel)
	}
}

func TestFig11Fig12(t *testing.T) {
	f11 := Fig11(harness.Params{}).Tables[0]
	if len(f11.Rows) != 4 {
		t.Fatalf("Fig11 rows = %d", len(f11.Rows))
	}
	f12 := Fig12(harness.Params{}).Tables[0]
	if len(f12.Rows) != len(Fig12Counts) {
		t.Fatalf("Fig12 rows = %d", len(f12.Rows))
	}
	// 1M AQs must fit ("millions of traffic constituents").
	for i, n := range Fig12Counts {
		if n == 1_000_000 && f12.Rows[i][3] != "yes" {
			t.Fatal("1M AQs do not fit the SRAM budget")
		}
	}
}
