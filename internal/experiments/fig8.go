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

// fig8Run shares the bottleneck between entity A (1 long flow) and entity
// B (n long flows), each on its own VM, for p.Horizon and returns (A, B)
// goodput in Gbps. weights sets the A:B share when AQ is used.
func fig8Run(p harness.Params, approach Approach, nB int, wA, wB float64) (float64, float64) {
	eng := sim.NewEngine()
	spec := topo.DefaultSim()
	d := topo.NewDumbbell(eng, 2, 2, spec, spec)
	rc := newRxClassifier(d.Right, 2, func(pkt *packet.Packet) int {
		return int(pkt.Dst) - 2 // dst 2 -> entity A, dst 3 -> entity B
	})
	ctrl := control.NewController(spec.Rate)
	var optA, optB transport.Options
	if approach == AQ {
		optA.IngressAQ = mustGrant(ctrl, control.Request{Tenant: "A", Mode: control.Weighted,
			Weight: wA, Limit: aqLimitFor(spec), Position: control.Ingress}, d.S1.Ingress)
		optB.IngressAQ = mustGrant(ctrl, control.Request{Tenant: "B", Mode: control.Weighted,
			Weight: wB, Limit: aqLimitFor(spec), Position: control.Ingress}, d.S1.Ingress)
	}
	longFlows(d.Left[:1], d.Right[:1], 1, ccFactory("cubic"), optA)
	longFlows(d.Left[1:2], d.Right[1:2], nB, ccFactory("cubic"), optB)
	eng.RunUntil(p.Horizon)
	warm := p.Horizon / 4
	return rc.Gbps(0, warm, p.Horizon), rc.Gbps(1, warm, p.Horizon)
}

// Fig8FlowCounts is Figure 8's x-axis: entity B's flow count.
var Fig8FlowCounts = []int{1, 4, 16, 64}

// Fig8 reproduces Figure 8: throughput of two entities when entity B
// raises its flow count. Under PQ the split follows the flow count; under
// AQ it follows the configured weights (1:1 and 1:2 shown, as in the
// paper).
func Fig8(p harness.Params) *harness.Result {
	t := &harness.Table{
		Title:  "Figure 8: throughput (Gbps) of entity A (1 flow) vs entity B (n flows)",
		Header: []string{"flows in B", "PQ A", "PQ B", "AQ 1:1 A", "AQ 1:1 B", "AQ 1:2 A", "AQ 1:2 B"},
	}
	for _, n := range Fig8FlowCounts {
		pqA, pqB := fig8Run(p, PQ, n, 1, 1)
		aqA, aqB := fig8Run(p, AQ, n, 1, 1)
		wA, wB := fig8Run(p, AQ, n, 1, 2)
		t.AddRow(fmt.Sprint(n), pqA, pqB, aqA, aqB, wA, wB)
	}
	return tables(t)
}
