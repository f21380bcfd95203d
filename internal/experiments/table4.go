package experiments

import (
	"fmt"
	"math"

	"aqueue/internal/control"
	"aqueue/internal/harness"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
)

// table4Run measures one side of the comparison over p.Horizon. Under PQ
// the trunk runs at 25 Gbps and the physical queuing delay at the trunk is
// recorded; under AQ the trunk runs at 100 Gbps with a 25 Gbps AQ, and the
// virtual queuing delay carried in the packets is recorded (§5.5).
func table4Run(p harness.Params, ccName string, useAQ bool) (float64, *stats.Percentiles) {
	c := p.Cluster()
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
			h.RxHook = func(pkt *packet.Packet) {
				if pkt.Kind == packet.Data {
					delays.AddDuration(pkt.VirtualDelay)
				}
			}
		}
	} else {
		d.Bottleneck.DelayHook = func(dl sim.Time, pkt *packet.Packet) {
			if pkt.Kind == packet.Data {
				delays.AddDuration(dl)
			}
		}
	}
	flows := longFlows(d.Left, d.Right, 5, ccFactory(ccName), opt)
	c.RunUntil(p.Horizon)
	return gbpsOf(sumAcked(flows), p.Horizon), delays
}

// Table4CCs are the algorithms the paper reports in Table 4.
var Table4CCs = []string{"cubic", "newreno", "dctcp"}

// Table4 reproduces Table 4: throughput and 95th-percentile queuing delay
// of an entity under PQ (25 Gbps link) and AQ (25 Gbps allocation on a
// 100 Gbps link), every run 300 ms whatever the horizon asked for. The
// metrics are each CC's relative p95 delay difference and throughput
// difference, in percent.
func Table4(p harness.Params) *harness.Result {
	p.Horizon = 300 * sim.Millisecond
	t := &harness.Table{
		Title:  "Table 4: AQ vs PQ behaviour preservation (25 Gbps entity)",
		Header: []string{"CC", "PQ thpt (Gbps)", "PQ p95 delay", "AQ thpt (Gbps)", "AQ p95 delay", "p95 rel diff"},
	}
	res := tables(t)
	res.Metrics = map[string]float64{}
	for _, ccName := range Table4CCs {
		pqG, pqD := table4Run(p, ccName, false)
		aqG, aqD := table4Run(p, ccName, true)
		pqP95 := sim.Time(pqD.Quantile(0.95))
		aqP95 := sim.Time(aqD.Quantile(0.95))
		var relP95, thptDelta float64
		if pqP95 > 0 {
			relP95 = math.Abs(100 * float64(aqP95-pqP95) / float64(pqP95))
		}
		if pqG > 0 {
			thptDelta = 100 * (aqG - pqG) / pqG
		}
		res.Metrics["p95_rel_pct."+ccName] = relP95
		res.Metrics["thpt_delta_pct."+ccName] = thptDelta
		t.AddRow(ccName, pqG, pqP95.String(), aqG, aqP95.String(),
			fmt.Sprintf("%.1f%%", relP95))
	}
	return res
}
