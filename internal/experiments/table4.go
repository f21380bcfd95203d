package experiments

import (
	"fmt"

	"aqueue/internal/control"
	"aqueue/internal/core"
	"aqueue/internal/harness"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
)

// Table4Row compares one CC algorithm's behaviour under a 25 Gbps physical
// network (PQ) and under a 25 Gbps AQ allocation on a 100 Gbps network.
type Table4Row struct {
	CC              string
	PQGbps, AQGbps  float64
	PQP95d, AQP95d  sim.Time
	RelP95DeltaPct  float64
	PQP50d, AQP50d  sim.Time
	ThroughputDelta float64
}

// table4Run measures one side of the comparison. Under PQ the trunk runs
// at 25 Gbps and the physical queuing delay at the trunk is recorded;
// under AQ the trunk runs at 100 Gbps with a 25 Gbps AQ, and the virtual
// queuing delay carried in the packets is recorded (§5.5).
func table4Run(ccName string, useAQ bool, domains int, parallel bool) (float64, *stats.Percentiles) {
	return table4RunFor(ccName, useAQ, 300*sim.Millisecond, domains, parallel)
}

// table4RunFor is table4Run with an explicit horizon (tests shorten it).
func table4RunFor(ccName string, useAQ bool, horizon sim.Time, domains int, parallel bool) (float64, *stats.Percentiles) {
	c := newClusterN(domains, parallel)
	defer c.Close()
	const (
		qLimit = 1000 * 1000
		ecnK   = 160 * 1000
		// The AQ's virtual marking threshold is tuned slightly below the
		// physical K: the A-Gap oscillates a little wider than a physical
		// queue (nothing meters arrivals at the AQ), and §6 notes AQ
		// thresholds are configured empirically per entity.
		aqEcnK = 110 * 1000
	)
	edge := topo.LinkSpec{Rate: 100 * units.Gbps, Delay: 2 * sim.Microsecond,
		QueueLimit: 4 * qLimit, Jitter: 80}
	trunk := edge
	if !useAQ {
		trunk.Rate = 25 * units.Gbps
		trunk.QueueLimit = qLimit
		trunk.ECNThreshold = ecnK
	}
	d := topo.NewDumbbellIn(c, 2, 2, edge, trunk)

	delays := &stats.Percentiles{}
	var opt transport.Options
	opt.EcnCapable = ecnCapable(ccName)
	if useAQ {
		ctrl := control.NewController(100 * units.Gbps)
		g, err := ctrl.Grant(control.Request{Tenant: ccName, Mode: control.Absolute,
			Bandwidth: 25 * units.Gbps, CC: ccTypeFor(ccName),
			Limit: qLimit, ECNThreshold: aqEcnK, Position: control.Ingress}, d.S1.Ingress)
		if err != nil {
			panic(err)
		}
		opt.IngressAQ = g.ID
		for _, h := range d.Right {
			h.RxHook = func(p *packet.Packet) {
				if p.Kind == packet.Data {
					delays.AddDuration(p.VirtualDelay)
				}
			}
		}
	} else {
		d.Bottleneck.DelayHook = func(dl sim.Time, p *packet.Packet) {
			if p.Kind == packet.Data {
				delays.AddDuration(dl)
			}
		}
	}
	flows := longFlows(d.Left, d.Right, 5, ccFactory(ccName), opt)
	c.RunUntil(horizon)
	gbps := gbpsOf(sumAcked(flows), horizon)
	_ = core.BytesPerAQ
	return gbps, delays
}

// Table4CCs are the algorithms the paper reports in Table 4.
var Table4CCs = []string{"cubic", "newreno", "dctcp"}

// Table4 reproduces Table 4: throughput and 95th-percentile queuing delay
// of an entity under PQ (25 Gbps link) and AQ (25 Gbps allocation on a
// 100 Gbps link).
func Table4(domains int, parallel bool) (*harness.Table, []Table4Row) {
	t := &harness.Table{
		Title:  "Table 4: AQ vs PQ behaviour preservation (25 Gbps entity)",
		Header: []string{"CC", "PQ thpt (Gbps)", "PQ p95 delay", "AQ thpt (Gbps)", "AQ p95 delay", "p95 rel diff"},
	}
	var rows []Table4Row
	for _, ccName := range Table4CCs {
		pqG, pqD := table4Run(ccName, false, domains, parallel)
		aqG, aqD := table4Run(ccName, true, domains, parallel)
		row := Table4Row{
			CC:     ccName,
			PQGbps: pqG, AQGbps: aqG,
			PQP95d: sim.Time(pqD.Quantile(0.95)),
			AQP95d: sim.Time(aqD.Quantile(0.95)),
			PQP50d: sim.Time(pqD.Quantile(0.50)),
			AQP50d: sim.Time(aqD.Quantile(0.50)),
		}
		if row.PQP95d > 0 {
			row.RelP95DeltaPct = 100 * float64(row.AQP95d-row.PQP95d) / float64(row.PQP95d)
			if row.RelP95DeltaPct < 0 {
				row.RelP95DeltaPct = -row.RelP95DeltaPct
			}
		}
		if pqG > 0 {
			row.ThroughputDelta = 100 * (aqG - pqG) / pqG
		}
		rows = append(rows, row)
		t.AddRow(ccName, pqG, row.PQP95d.String(), aqG, row.AQP95d.String(),
			fmt.Sprintf("%.1f%%", row.RelP95DeltaPct))
	}
	return t, rows
}
