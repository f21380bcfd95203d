package experiments

import (
	"fmt"

	"aqueue/internal/control"
	"aqueue/internal/harness"
	"aqueue/internal/packet"
	"aqueue/internal/queue"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
)

// ExtPerEntityQueues quantifies the paper's scaling argument against
// per-flow/per-entity queueing (§1, §7): a switch has only a handful of
// hardware queues, so once entities outnumber them, hash-collided entities
// share a queue and fairness collapses — while AQ state is 15 bytes per
// entity and keeps the shares exact.
//
// N entities share a 10 Gbps bottleneck; entity i opens 1+(3i mod 5) long
// CUBIC flows, so colliding entities also differ in aggressiveness. The
// bottleneck port runs a DRR scheduler with hwQueues hardware queues
// (classified by entity tag); the same setup is run with one weighted AQ
// per entity instead. Each run lasts p.Horizon. Returns Jain's fairness
// index across the entities' goodputs for DRR and AQ.
func ExtPerEntityQueues(p harness.Params, entities, hwQueues int) (drrJain, aqJain float64) {
	run := func(useAQ bool) float64 {
		eng := sim.NewEngine()
		spec := topo.DefaultSim()
		d := topo.NewDumbbell(eng, entities, entities, spec, spec)
		if !useAQ {
			// Replace the bottleneck's FIFO with a DRR over the hardware
			// queues, classified by the entity tag in the header.
			d.Bottleneck.SetScheduler(queue.NewDRR(hwQueues, packet.MaxDataBytes,
				spec.QueueLimit/hwQueues,
				func(pkt *packet.Packet) uint64 { return uint64(pkt.IngressAQ) }))
		}
		ctrl := control.NewController(spec.Rate)
		for i := 0; i < entities; i++ {
			var opt transport.Options
			if useAQ {
				opt.IngressAQ = mustGrant(ctrl, control.Request{Tenant: fmt.Sprint(i),
					Mode: control.Weighted, Weight: 1, Limit: aqLimitFor(spec),
					Position: control.Ingress}, d.S1.Ingress)
			} else {
				// Tag with a synthetic entity ID for the DRR classifier;
				// no AQ is deployed, so switches pass the tag through.
				opt.IngressAQ = packet.AQID(i + 1)
			}
			longFlows(d.Left[i:i+1], d.Right[i:i+1], 1+(3*i)%5, ccFactory("cubic"), opt)
		}
		eng.RunUntil(p.Horizon)
		shares := make([]float64, entities)
		for i := 0; i < entities; i++ {
			shares[i] = float64(d.Right[i].RxBytes)
		}
		return stats.JainIndex(shares)
	}
	return run(false), run(true)
}

// ExtQueues sweeps the entity count against a fixed 8-queue DRR port and
// renders the fairness comparison.
func ExtQueues(p harness.Params) *harness.Result {
	t := &harness.Table{
		Title:  "Extension: per-entity hardware queues (DRR, 8 queues) vs AQ — Jain fairness",
		Header: []string{"#entities", "DRR(8 queues)", "AQ"},
	}
	for _, n := range []int{4, 8, 16, 32} {
		dj, aj := ExtPerEntityQueues(p, n, 8)
		t.AddRow(fmt.Sprint(n), dj, aj)
	}
	return tables(t)
}
