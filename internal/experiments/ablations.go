package experiments

import (
	"aqueue/internal/control"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
)

// AblationAQLimit measures the goodput of a 5 Gbps drop-type AQ entity as
// a function of the AQ limit (§6: "low allocated bandwidth can lead to a
// small AQ limit, which might hinder the entity to achieve its allocated
// bandwidth due to excess packet drops"). Returns Gbps.
func AblationAQLimit(limit int, horizon sim.Time) float64 {
	eng := sim.NewEngine()
	spec := topo.DefaultSim()
	d := topo.NewDumbbell(eng, 1, 1, spec, spec)
	ctrl := control.NewController(spec.Rate)
	id := mustGrant(ctrl, control.Request{Tenant: "x", Mode: control.Absolute,
		Bandwidth: 5 * units.Gbps, Limit: limit, Position: control.Ingress}, d.S1.Ingress)
	flows := longFlows(d.Left, d.Right, 4, ccFactory("cubic"), transport.Options{IngressAQ: id})
	eng.RunUntil(horizon)
	return stats.RateGbps(sumAcked(flows), horizon)
}

// AblationWorkConservation measures an entity with a 3 Gbps guarantee on
// an otherwise idle 10 Gbps link, with and without the §6 empty-queue
// bypass. Returns the entity's Gbps: ~3 strict, ~10 with the bypass.
func AblationWorkConservation(bypass bool, horizon sim.Time) float64 {
	eng := sim.NewEngine()
	spec := topo.DefaultSim()
	d := topo.NewDumbbell(eng, 1, 1, spec, spec)
	d.S1.WorkConserving = bypass
	ctrl := control.NewController(spec.Rate)
	id := mustGrant(ctrl, control.Request{Tenant: "x", Mode: control.Absolute,
		Bandwidth: 3 * units.Gbps, Limit: aqLimitFor(spec), Position: control.Ingress}, d.S1.Ingress)
	flows := longFlows(d.Left, d.Right, 4, ccFactory("cubic"), transport.Options{IngressAQ: id})
	eng.RunUntil(horizon)
	return stats.RateGbps(sumAcked(flows), horizon)
}

// AblationWeightedRebalance measures the surviving entity's rate after its
// peer goes idle halfway, with and without the controller's active-set
// rebalance (§4.1). With rebalance the survivor absorbs the idle share
// (~10 Gbps); without it the survivor stays at its static 5 Gbps.
func AblationWeightedRebalance(rebalance bool, horizon sim.Time) float64 {
	eng := sim.NewEngine()
	spec := topo.DefaultSim()
	d := topo.NewDumbbell(eng, 2, 2, spec, spec)
	ctrl := control.NewController(spec.Rate)
	grant := func(tenant string) packet.AQID {
		return mustGrant(ctrl, control.Request{Tenant: tenant, Mode: control.Weighted,
			Weight: 1, Limit: aqLimitFor(spec), Position: control.Ingress}, d.S1.Ingress)
	}
	idA := grant("A")
	idB := grant("B")

	a := transport.NewSender(d.Left[0], d.Right[0], 0, ccFactory("cubic")(),
		transport.Options{IngressAQ: idA})
	a.Start(0)
	b := transport.NewSender(d.Left[1], d.Right[1], 0, ccFactory("cubic")(),
		transport.Options{IngressAQ: idB})
	b.Start(0)

	half := horizon / 2
	eng.RunUntil(half)
	b.Stop()
	if rebalance {
		ctrl.SetActive(idB, false)
	}
	ackedAtHalf := uint64(a.AckedBytes())
	eng.RunUntil(horizon)
	return stats.RateGbps(uint64(a.AckedBytes())-ackedAtHalf, horizon-half)
}

// AblationReallocator measures entity A's rate when its peer B demands
// only 1 Gbps of its 5 Gbps weighted share, with and without the §6
// arrival-rate reallocator (internal/control.Reallocator). Without it A is
// pinned at its static 5 Gbps; with it A absorbs B's idle capacity.
func AblationReallocator(enabled bool, horizon sim.Time) float64 {
	eng := sim.NewEngine()
	spec := topo.DefaultSim()
	d := topo.NewDumbbell(eng, 2, 2, spec, spec)
	ctrl := control.NewController(spec.Rate)
	idA := mustGrant(ctrl, control.Request{Tenant: "A", Mode: control.Weighted,
		Weight: 1, Limit: aqLimitFor(spec), Position: control.Ingress}, d.S1.Ingress)
	idB := mustGrant(ctrl, control.Request{Tenant: "B", Mode: control.Weighted,
		Weight: 1, Limit: aqLimitFor(spec), Position: control.Ingress}, d.S1.Ingress)
	if enabled {
		re := control.NewReallocator(eng, ctrl)
		re.Manage(idA, d.S1.Ingress, 1)
		re.Manage(idB, d.S1.Ingress, 1)
		re.Start()
	}
	flows := longFlows(d.Left[:1], d.Right[:1], 4, ccFactory("cubic"),
		transport.Options{IngressAQ: idA})
	// Entity B: a 1 Gbps CBR — far under its share.
	u := transport.NewUDPSender(d.Left[1], d.Right[1], 1*units.Gbps,
		transport.Options{IngressAQ: idB})
	u.Start(0)
	// Measure A over the second half (the reallocator needs a few rounds).
	half := horizon / 2
	eng.RunUntil(half)
	at := sumAcked(flows)
	eng.RunUntil(horizon)
	return stats.RateGbps(sumAcked(flows)-at, horizon-half)
}
