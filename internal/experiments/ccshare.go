package experiments

import (
	"fmt"

	"aqueue/internal/control"
	"aqueue/internal/harness"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
)

// ccEntity describes one entity in a CC-sharing experiment: either n TCP
// flows under one algorithm or a line-rate UDP blast.
type ccEntity struct {
	cc    string // "udp" for the UDP entity
	flows int
	udp   bool
}

// CCShareResult is one entity's outcome.
type CCShareResult struct {
	Label string
	Gbps  float64
}

// runCCShare shares a 10 Gbps dumbbell among the entities under the given
// approach (PQ or AQ; the rate-limiting baselines are not part of these
// experiments) for p.Horizon and returns per-entity goodput measured after
// warmup.
func runCCShare(p harness.Params, approach Approach, entities []ccEntity) []CCShareResult {
	eng := sim.NewEngine()
	spec := topo.DefaultSim()
	m := len(entities)
	hostsPer := 2
	d := topo.NewDumbbell(eng, m*hostsPer, m*hostsPer, spec, spec)

	classify := func(pkt *packet.Packet) int {
		// Destination hosts are allocated per entity in blocks.
		idx := int(pkt.Dst) - m*hostsPer
		if idx < 0 {
			return -1
		}
		return idx / hostsPer
	}
	rc := newRxClassifier(d.Right, m, classify)

	ctrl := control.NewController(spec.Rate)
	for i, e := range entities {
		srcs := d.Left[i*hostsPer : (i+1)*hostsPer]
		dsts := d.Right[i*hostsPer : (i+1)*hostsPer]
		var opt transport.Options
		if approach == AQ {
			opt.IngressAQ = mustGrant(ctrl, control.Request{
				Tenant:   e.cc,
				Mode:     control.Weighted,
				Weight:   1,
				CC:       ccTypeFor(e.cc),
				Limit:    aqLimitFor(spec),
				Position: control.Ingress,
			}, d.S1.Ingress)
		}
		if e.udp {
			u := transport.NewUDPSender(srcs[0], dsts[0], spec.Rate, opt)
			u.Start(0)
			continue
		}
		opt.EcnCapable = ecnCapable(e.cc)
		longFlows(srcs, dsts, e.flows, ccFactory(e.cc), opt)
	}
	eng.RunUntil(p.Horizon)

	warmup := p.Horizon / 4
	out := make([]CCShareResult, m)
	for i, e := range entities {
		label := fmt.Sprintf("%d %s", e.flows, e.cc)
		if e.udp {
			label = "1 udp"
		}
		out[i] = CCShareResult{Label: label, Gbps: rc.Gbps(i, warmup, p.Horizon)}
	}
	return out
}

// Fig1Pairs are the CC pairings of the motivating Figure 1 (10 flows each,
// shared physical queue).
var Fig1Pairs = [][2]string{
	{"cubic", "newreno"},
	{"cubic", "dctcp"},
	{"newreno", "dctcp"},
	{"cubic", "swift"},
	{"dctcp", "swift"},
	{"newreno", "swift"},
}

// Fig1 reproduces Figure 1: traffic interference between CC algorithm
// pairs sharing a physical queue (no AQ).
func Fig1(p harness.Params) *harness.Result {
	t := &harness.Table{
		Title:  "Figure 1: CC interference in a shared physical queue (10 flows each)",
		Header: []string{"pair", "thpt A (Gbps)", "thpt B (Gbps)"},
	}
	for _, pair := range Fig1Pairs {
		res := runCCShare(p, PQ, []ccEntity{
			{cc: pair[0], flows: 10},
			{cc: pair[1], flows: 10},
		})
		t.AddRow(pair[0]+" + "+pair[1], res[0].Gbps, res[1].Gbps)
	}
	return tables(t)
}

// Table2Settings are the paper's Table 2 rows.
var Table2Settings = [][]ccEntity{
	{{cc: "cubic", flows: 5}, {cc: "cubic", flows: 5}},
	{{cc: "cubic", flows: 5}, {cc: "dctcp", flows: 5}},
	{{cc: "newreno", flows: 5}, {cc: "dctcp", flows: 5}},
	{{cc: "illinois", flows: 5}, {cc: "dctcp", flows: 5}},
	{{cc: "cubic", flows: 5}, {cc: "swift", flows: 5}},
	{{cc: "dctcp", flows: 5}, {cc: "swift", flows: 5}},
	{{cc: "dctcp", flows: 10}, {cc: "newreno", flows: 5}},
	{{cc: "dctcp", flows: 10}, {cc: "swift", flows: 5}},
	{
		{cc: "udp", flows: 1, udp: true},
		{cc: "cubic", flows: 3},
		{cc: "dctcp", flows: 3},
		{cc: "swift", flows: 3},
	},
}

// Table2 reproduces Table 2: entity throughput under the CC settings, for
// PQ and AQ.
func Table2(p harness.Params) *harness.Result {
	t := &harness.Table{
		Title:  "Table 2: Throughput of entities with different CC settings (Gbps)",
		Header: []string{"congestion control", "PQ", "AQ"},
	}
	for _, setting := range Table2Settings {
		pq := runCCShare(p, PQ, setting)
		aq := runCCShare(p, AQ, setting)
		label, pqS, aqS := "", "", ""
		for i := range setting {
			if i > 0 {
				label += " + "
				pqS += " + "
				aqS += " + "
			}
			label += pq[i].Label
			pqS += fmt.Sprintf("%.1f", pq[i].Gbps)
			aqS += fmt.Sprintf("%.1f", aq[i].Gbps)
		}
		t.AddRow(label, pqS, aqS)
	}
	return tables(t)
}
