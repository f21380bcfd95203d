package experiments

import (
	"aqueue/internal/cc"
	"aqueue/internal/control"
	"aqueue/internal/core"
	"aqueue/internal/harness"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
	"aqueue/internal/workload"
)

// The fabric extension experiments take AQ beyond the paper's dumbbell and
// star: a leaf-spine fabric with ECMP, with the entity's AQs deployed on
// every leaf switch (§4.1 allows multiple AQs per entity). They check that
// the guarantees survive multi-pathing and multi-hop AQ traversal. Edge and
// leaf-spine links are both the 10G §5.1 spec, so the oversubscribed leaf
// uplinks are the contended resource.

// ExtFabricIsolation shares a 2-leaf/2-spine fabric between two entities
// whose VMs are split across both leaves; entity B opens 4x the flows.
// Under PQ the split follows flow counts; with weighted AQs deployed on
// both leaf ingress pipelines it follows the weights. Each run lasts
// p.Horizon. Returns per-entity Gbps for (PQ A, PQ B, AQ A, AQ B).
func ExtFabricIsolation(p harness.Params) (pqA, pqB, aqA, aqB float64) {
	run := func(useAQ bool) (float64, float64) {
		eng := sim.NewEngine()
		spec := topo.DefaultSim()
		f := topo.NewLeafSpine(eng, 2, 2, 4, spec, spec)
		// Entity A: hosts 0,1 (leaf 0) -> hosts 4,5 (leaf 1).
		// Entity B: hosts 2,3 (leaf 0) -> hosts 6,7 (leaf 1).
		rc := newRxClassifier(f.Hosts[4:], 2, func(pkt *packet.Packet) int {
			switch pkt.Dst {
			case 4, 5:
				return 0
			case 6, 7:
				return 1
			}
			return -1
		})
		var optA, optB transport.Options
		if useAQ {
			// One grant per entity per leaf switch: the controller hands
			// out distinct IDs, the tenant tags by source leaf.
			ctrl := control.NewController(spec.Rate * 2) // two uplinked hosts per entity
			optA.IngressAQ = mustGrant(ctrl, control.Request{Tenant: "A", Mode: control.Weighted,
				Weight: 1, Limit: aqLimitFor(spec), Position: control.Ingress}, f.Leaves[0].Ingress)
			optB.IngressAQ = mustGrant(ctrl, control.Request{Tenant: "B", Mode: control.Weighted,
				Weight: 1, Limit: aqLimitFor(spec), Position: control.Ingress}, f.Leaves[0].Ingress)
		}
		longFlows([]*topo.Host{f.Hosts[0], f.Hosts[1]},
			[]*topo.Host{f.Hosts[4], f.Hosts[5]}, 8, ccFactory("cubic"), optA)
		longFlows([]*topo.Host{f.Hosts[2], f.Hosts[3]},
			[]*topo.Host{f.Hosts[6], f.Hosts[7]}, 16, ccFactory("cubic"), optB)
		eng.RunUntil(p.Horizon)
		warm := p.Horizon / 4
		return rc.Gbps(0, warm, p.Horizon), rc.Gbps(1, warm, p.Horizon)
	}
	pqA, pqB = run(false)
	aqA, aqB = run(true)
	return
}

// ExtFabricIncast fires an 8:1 incast across the fabric at a receiver with
// a 2 Gbps inbound guarantee enforced by an egress-pipeline AQ on its
// leaf. Each run lasts p.Horizon. It returns the receiver's measured
// inbound rate without and with the AQ.
func ExtFabricIncast(p harness.Params) (pqGbps, aqGbps float64) {
	run := func(useAQ bool) float64 {
		eng := sim.NewEngine()
		spec := topo.DefaultSim()
		f := topo.NewLeafSpine(eng, 3, 2, 3, spec, spec)
		victim := f.Hosts[0]
		rc := newRxClassifier([]*topo.Host{victim}, 1, func(*packet.Packet) int { return 0 })
		var opt transport.Options
		opt.EcnCapable = true
		if useAQ {
			ctrl := control.NewController(spec.Rate)
			opt.EgressAQ = mustGrant(ctrl, control.Request{Tenant: "victim-in", Mode: control.Absolute,
				Bandwidth: 2 * units.Gbps, CC: core.ECNType, Limit: aqLimitFor(spec),
				Position: control.Egress}, f.Leaf(0).Egress)
		}
		in := workload.Incast{
			Senders:       f.Hosts[1:],
			Receiver:      victim,
			ResponseBytes: 400_000,
			Period:        4 * sim.Millisecond,
			CC:            func() cc.Algorithm { return cc.NewDCTCP() },
			Opt:           opt,
		}
		in.Start()
		eng.RunUntil(p.Horizon)
		return rc.Gbps(0, p.Horizon/4, p.Horizon)
	}
	return run(false), run(true)
}

// ExtFabric renders both fabric extension results.
func ExtFabric(p harness.Params) *harness.Result {
	t := &harness.Table{
		Title:  "Extension: AQ on a 2-tier ECMP leaf-spine fabric",
		Header: []string{"scenario", "PQ", "AQ"},
	}
	pqA, pqB, aqA, aqB := ExtFabricIsolation(p)
	t.AddRow("isolation: entity A (8 flows) Gbps", pqA, aqA)
	t.AddRow("isolation: entity B (32 flows) Gbps", pqB, aqB)
	pqIn, aqIn := ExtFabricIncast(p)
	t.AddRow("8:1 incast victim inbound Gbps (guarantee 2)", pqIn, aqIn)
	return tables(t)
}
