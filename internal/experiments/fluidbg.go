package experiments

import (
	"fmt"
	"math"

	"aqueue/internal/control"
	"aqueue/internal/fluid"
	"aqueue/internal/harness"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
	"aqueue/internal/workload"
)

// This file is the fidelity gate of the hybrid fluid/packet split: the
// fig9-style guarantee scenario and the fig6-style completion scenario
// each run twice — background load as a packet-level UDP blaster, then as
// a fluid entity — and the foreground results must agree. The fluid lane
// earns its million-entity scaling only if replacing background packets
// with rate ODEs is unobservable (within tolerance) to the packet-level
// foreground it shares the fabric with.

// FluidBGTolerancePct is the fidelity gate: foreground guarantee
// precision, fairness and completion time under a fluid background must be
// within this percentage of the all-packet baseline.
const FluidBGTolerancePct = 5.0

// FluidBGResult carries both scenarios' paired runs and the fidelity
// deltas between them.
type FluidBGResult struct {
	// Guarantee scenario (fig9-style): per-foreground-entity goodputs in
	// Gbps over the steady window, under packet and fluid background.
	GoodputPkt   []float64
	GoodputFluid []float64
	JainPkt      float64
	JainFluid    float64
	// Background goodput in each variant (reported, not gated: the
	// foreground is what the gate protects).
	BGPkt   float64
	BGFluid float64
	// Completion scenario (fig6-style): the foreground tenant's workload
	// completion time under each background.
	CompletionPkt   sim.Time
	CompletionFluid sim.Time

	// The gated deltas, in percent.
	GuaranteeDeltaPct  float64
	JainDeltaPct       float64
	CompletionDeltaPct float64
}

// relDeltaPct is |b-a|/a in percent (0 when a is 0).
func relDeltaPct(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return math.Abs(b-a) / math.Abs(a) * 100
}

// fluidGuaranteeRun is the fig9-style scenario: three foreground CUBIC
// entities and one line-rate background blaster share the bottleneck
// under AQ weighted mode (2.5 Gbps each). The background is a UDP packet
// sender or a fluid Fixed entity depending on fluidBG. The run lasts
// p.Horizon. Returns the foreground goodputs over the steady window and
// the background goodput.
func fluidGuaranteeRun(p harness.Params, fluidBG bool) (fg []float64, bg float64) {
	const nFG = 3
	n := nFG + 1
	horizon := p.Horizon
	c := p.Cluster()
	defer c.Close()
	spec := simSpec()
	d := topo.NewDumbbellIn(c, n, n, spec, spec)
	rc := newRxClassifier(d.Right, n, sim.Millisecond, func(pkt *packet.Packet) int {
		return int(pkt.Dst) - n
	})
	ctrl := control.NewController(spec.Rate)

	grant := func(name string) packet.AQID {
		g, err := ctrl.Grant(control.Request{Tenant: name, Mode: control.Weighted,
			Weight: 1, Limit: aqLimitFor(spec), Position: control.Ingress}, d.S1.Ingress)
		if err != nil {
			panic(err)
		}
		return g.ID
	}
	for i := 0; i < nFG; i++ {
		opt := transport.Options{IngressAQ: grant(fmt.Sprintf("fg-%d", i))}
		s := transport.NewSender(d.Left[i], d.Right[i], 0, ccFactory("cubic")(), opt)
		s.Start(sim.Time(i) * 20 * sim.Microsecond)
	}
	bgID := grant("bg")

	var bgEntity fluid.Entity
	if fluidBG {
		// The lane lives on S1's engine: its table, the bottleneck pipe
		// and the epoch timer are all domain-local there.
		lane := fluid.NewLane(d.S1.Engine(), d.S1.Ingress, 0)
		pi := lane.AddPipe(d.Bottleneck)
		bgEntity = lane.Add(fluid.EntityConfig{
			AQ: bgID, CC: "udp", Rate: spec.Rate, Pipe: pi,
		})
		lane.SetDeadline(horizon)
		lane.Start(0)
	} else {
		u := transport.NewUDPSender(d.Left[nFG], d.Right[nFG], spec.Rate,
			transport.Options{IngressAQ: bgID})
		u.Start(0)
	}
	c.RunUntil(horizon)

	from, to := horizon/4, horizon // skip the slow-start transient
	fg = make([]float64, nFG)
	for i := range fg {
		fg[i] = rc.Gbps(i, from, to)
	}
	if fluidBG {
		bg = bgEntity.Delivered() * 8 / float64(horizon)
	} else {
		bg = rc.Gbps(nFG, 0, horizon)
	}
	return fg, bg
}

// fluidCompletionRun is the fig6-style scenario: a four-VM tenant replays
// a closed-loop web-search trace of p.Flows flows drawn from p.Seed against
// a line-rate background blaster, both holding weight-1 AQ grants. Returns
// the tenant's workload completion time. The background stops when the
// tenant finishes, so the run ends promptly in both variants.
func fluidCompletionRun(p harness.Params, fluidBG bool) sim.Time {
	const vms = 4
	c := p.Cluster()
	defer c.Close()
	spec := simSpec()
	d := topo.NewDumbbellIn(c, vms+1, vms+1, spec, spec)
	ctrl := control.NewController(spec.Rate)

	g, err := ctrl.Grant(control.Request{Tenant: "tenant", Mode: control.Weighted,
		Weight: 1, Limit: aqLimitFor(spec), Position: control.Ingress}, d.S1.Ingress)
	if err != nil {
		panic(err)
	}
	bgGrant, err := ctrl.Grant(control.Request{Tenant: "bg", Mode: control.Weighted,
		Weight: 1, Limit: aqLimitFor(spec), Position: control.Ingress}, d.S1.Ingress)
	if err != nil {
		panic(err)
	}

	r := sim.NewRand(p.Seed)
	var ws workload.WebSearch
	sizes := make([]int64, p.Flows)
	var traceBytes int64
	for i := range sizes {
		sizes[i] = ws.Sample(r)
		traceBytes += sizes[i]
	}
	// The tenant's share is half the link; cap the run at several times
	// the ideal completion so a stuck run is visible, not endless.
	share := units.BitRate(float64(spec.Rate) / 2)
	ideal := sim.Time(float64(traceBytes*8) / float64(share) * 1e9)
	runCap := 6*ideal + 200*sim.Millisecond

	var stopBG func()
	if fluidBG {
		lane := fluid.NewLane(d.S1.Engine(), d.S1.Ingress, 0)
		pi := lane.AddPipe(d.Bottleneck)
		lane.Add(fluid.EntityConfig{AQ: bgGrant.ID, CC: "udp", Rate: spec.Rate, Pipe: pi})
		lane.SetDeadline(runCap)
		lane.Start(0)
		stopBG = lane.Stop
	} else {
		u := transport.NewUDPSender(d.Left[vms], d.Right[vms], spec.Rate,
			transport.Options{IngressAQ: bgGrant.ID})
		u.Start(0)
		stopBG = u.Stop
	}

	tr := &stats.FCT{}
	opt := transport.Options{IngressAQ: g.ID}
	id := g.ID
	runClosedLoop(d.Left[:vms], d.Right[:vms], sizes, ccFactory("cubic"), opt, tr, r, func() {
		ctrl.SetActive(id, false)
		stopBG()
	})
	c.RunUntil(runCap)
	if !tr.AllDone() {
		return runCap
	}
	return tr.CompletionTime()
}

// FluidBG runs both fidelity scenarios and computes the gated deltas.
func FluidBG(p harness.Params) FluidBGResult {
	var r FluidBGResult
	r.GoodputPkt, r.BGPkt = fluidGuaranteeRun(p, false)
	r.GoodputFluid, r.BGFluid = fluidGuaranteeRun(p, true)
	r.JainPkt = stats.JainIndex(r.GoodputPkt)
	r.JainFluid = stats.JainIndex(r.GoodputFluid)
	for i := range r.GoodputPkt {
		if d := relDeltaPct(r.GoodputPkt[i], r.GoodputFluid[i]); d > r.GuaranteeDeltaPct {
			r.GuaranteeDeltaPct = d
		}
	}
	r.JainDeltaPct = relDeltaPct(r.JainPkt, r.JainFluid)

	r.CompletionPkt = fluidCompletionRun(p, false)
	r.CompletionFluid = fluidCompletionRun(p, true)
	r.CompletionDeltaPct = relDeltaPct(float64(r.CompletionPkt), float64(r.CompletionFluid))
	return r
}

// FluidBGExperiment runs FluidBG and renders the paired runs side by side,
// with the three gated deltas as metrics.
func FluidBGExperiment(p harness.Params) *harness.Result {
	r := FluidBG(p)
	t := &harness.Table{
		Title:  "Fluid background fidelity: foreground results, packet vs fluid background",
		Header: []string{"metric", "packet bg", "fluid bg", "delta %"},
	}
	for i := range r.GoodputPkt {
		t.AddRow(fmt.Sprintf("fg-%d goodput (Gbps)", i), r.GoodputPkt[i], r.GoodputFluid[i],
			relDeltaPct(r.GoodputPkt[i], r.GoodputFluid[i]))
	}
	t.AddRow("fg Jain index", r.JainPkt, r.JainFluid, r.JainDeltaPct)
	t.AddRow("bg goodput (Gbps)", r.BGPkt, r.BGFluid, relDeltaPct(r.BGPkt, r.BGFluid))
	t.AddRow("tenant completion (ms)",
		float64(r.CompletionPkt)/float64(sim.Millisecond),
		float64(r.CompletionFluid)/float64(sim.Millisecond),
		r.CompletionDeltaPct)
	res := tables(t)
	res.Metrics = map[string]float64{
		"guarantee_delta_pct":  r.GuaranteeDeltaPct,
		"jain_delta_pct":       r.JainDeltaPct,
		"completion_delta_pct": r.CompletionDeltaPct,
	}
	return res
}
