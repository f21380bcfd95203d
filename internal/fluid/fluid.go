// Package fluid implements the flow-level lane of the hybrid fidelity
// split: background entities modelled as piecewise-constant rate ODEs
// advanced at AQ-table epochs, instead of as individual packets.
//
// The paper's A-Gap is defined over an entity's arrival *rate* (Expression
// 7); nothing in Algorithms 1-2 requires discrete packets. The fluid lane
// exploits that: each entity carries a sending rate evolved by a
// first-order abstraction of its congestion-control family (additive
// increase, multiplicative decrease on the AQ's drop/mark/delay feedback),
// and every epoch the lane integrates rate·dt bytes through the same
// core.Table the packet lane uses and shares link capacity with packets
// via per-pipe residual-rate accounting (topo.Pipe.SetFluidRate).
// Foreground flows stay packet-level; the AQ sees the sum. This is the
// standard Level-3/Level-4 modelling technique, and it is what takes the
// simulator from thousands of concurrent flows to millions of entities.
//
// Entity state is structure-of-arrays: consecutively-registered entities
// of one (pipe, params) class form a cohort (cohort.go) that keeps, as the
// paper's Table 1 does for an AQ, configuration apart from state: a run
// table holds what registration fixed — tag, demand cap, registered rate,
// once per run of identical entities — and parallel float64 slices hold
// only what a model evolves, where it varies: delivered and dropped once
// per run in a Fixed cohort with no tagged run, whose entities all see the
// same numbers, and per entity otherwise; rate for the reactive models,
// alpha for ECN. A cohort is stepped run by run: each run is resolved once
// through a core.StreamCursor and integrated as one core.AQ.OnFluidRun
// transaction, and a per-run cohort's run takes one offer and one slot
// update. Either way the result is bit-identical to one Table.ProcessFluid
// call per entity. An Entity is a stable (cohort, index) handle.
package fluid

import (
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/units"
)

// Model selects the first-order feedback reaction of a fluid entity,
// mirroring core.CCType on the sender side.
type Model uint8

const (
	// Fixed is a non-reactive constant-demand source — the fluid analogue
	// of a UDP blaster.
	Fixed Model = iota
	// Loss reacts to the drop fraction with multiplicative decrease
	// (NewReno/CUBIC/Illinois families to first order).
	Loss
	// ECN runs a DCTCP-style EWMA of the mark fraction and cuts
	// proportionally to it.
	ECN
	// Delay backs off when the AQ's virtual delay exceeds a target
	// (Swift/Timely families to first order).
	Delay
)

// Params is the first-order congestion model of one entity.
type Params struct {
	Model Model
	// MSS and RTT parameterise the additive-increase term MSS/RTT per
	// RTT — the classic fluid TCP ramp — and the rate floor of one MSS
	// per RTT.
	MSS int
	RTT sim.Time
	// Beta is the multiplicative decrease factor applied on loss
	// (rate *= 1-Beta). DCTCP uses alpha/2 instead; Delay scales Beta by
	// the relative target excess.
	Beta float64
	// Gain is the DCTCP alpha EWMA gain (Model == ECN).
	Gain float64
	// Target is the virtual-delay target (Model == Delay).
	Target sim.Time
	// MinRate floors the rate in bytes/ns; zero selects one MSS per RTT.
	MinRate float64
}

// ParamsFor maps a congestion-control algorithm name — the same names
// transport feeds cc.ByName — to its first-order fluid model. Unknown or
// empty names (and "udp"/"fixed") yield a non-reactive constant-demand
// source.
func ParamsFor(name string) Params {
	p := Params{
		MSS:  1460,
		RTT:  100 * sim.Microsecond,
		Beta: 0.5,
	}
	switch name {
	case "newreno", "illinois", "bbr":
		p.Model = Loss
	case "cubic":
		p.Model = Loss
		p.Beta = 0.3 // CUBIC's gentler backoff
	case "dctcp":
		p.Model = ECN
		p.Gain = 1.0 / 16
	case "swift", "timely":
		p.Model = Delay
		p.Target = 50 * sim.Microsecond
	default: // "", "udp", "fixed", anything unrecognised
		p.Model = Fixed
	}
	return p
}

// ai returns the additive-increase slope in bytes/ns per ns (MSS/RTT per
// RTT).
func (p Params) ai() float64 {
	if p.RTT <= 0 {
		return 0
	}
	return float64(p.MSS) / (float64(p.RTT) * float64(p.RTT))
}

// floor returns the minimum rate in bytes/ns.
func (p Params) floor() float64 {
	if p.MinRate > 0 {
		return p.MinRate
	}
	if p.RTT <= 0 {
		return 0
	}
	return float64(p.MSS) / float64(p.RTT)
}

// EntityConfig describes one fluid entity added to a Lane.
type EntityConfig struct {
	// AQ is the tag the entity's bytes carry through the lane's table,
	// exactly like a packet's header tag. NoAQ passes unmatched.
	AQ packet.AQID
	// CC selects the first-order model by cc.ByName family; ignored when
	// Params is non-zero-valued (Model set explicitly).
	CC     string
	Params *Params
	// Rate is the initial sending rate; Demand caps it (0 = uncapped
	// beyond the link accounting).
	Rate   units.BitRate
	Demand units.BitRate
	// Pipe is the index (from Lane.AddPipe) of the link the entity's
	// bytes traverse, for residual-rate accounting; -1 for none.
	Pipe int
	// Meter, when non-nil, receives the entity's accepted bytes per
	// epoch (fractional adds).
	Meter *stats.Meter
}

// Entity is a stable handle to one fluid flow: (cohort, index) into the
// lane's structure-of-arrays state. Handles stay valid for the lane's
// lifetime — cohorts only ever append. The zero Entity is not attached to
// a lane; using it panics.
type Entity struct {
	lane *Lane
	c, i int32
}

// AQID returns the tag the entity's bytes carry through the lane's table.
func (e Entity) AQID() packet.AQID { return e.lane.cohorts[e.c].runOf(e.i).aqid }

// Rate returns the entity's current sending rate.
func (e Entity) Rate() units.BitRate {
	return units.BitRate(e.lane.cohorts[e.c].rateAt(e.i) * 8e9)
}

// Delivered returns the cumulative bytes the network accepted from the
// entity.
func (e Entity) Delivered() float64 {
	d, _ := e.lane.cohorts[e.c].outcomeAt(e.i)
	return d
}

// Dropped returns the cumulative bytes shed by link sharing and the AQ.
func (e Entity) Dropped() float64 {
	_, d := e.lane.cohorts[e.c].outcomeAt(e.i)
	return d
}
