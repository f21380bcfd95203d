// Package core implements the paper's contribution: the Augmented Queue
// (AQ) abstraction.
//
// An AQ tracks, per traffic entity, the A-Gap — the clamped integral of the
// difference between the entity's arrival rate r(t) and its allocated rate R
// (Expression 7). Theorem 3.2 converts the continuous definition to the
// per-packet streaming recurrence implemented here (Algorithm 1):
//
//	A(p_k.time) = max(0, A(p_{k-1}.time) - Δ(k)·R) + p_k.size
//
// On top of the A-Gap, the traffic-control framework (Algorithm 2) drops
// packets once the A-Gap exceeds the AQ limit (rate limiting / feedback for
// drop-based CC), marks ECN once it exceeds a virtual threshold (feedback
// for ECN-based CC), and stamps the virtual queuing delay A(k)/R into the
// packet (feedback for delay-based CC). All of this is independent of the
// physical queue, which is the point of the abstraction.
package core

import (
	"fmt"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// CCType selects the network-feedback generation behaviour of an AQ
// (Algorithm 2). Drop-based CC needs no extra action: AQ-limit drops are the
// feedback.
type CCType uint8

const (
	// DropType serves loss-based CC algorithms (CUBIC, NewReno, Illinois)
	// and plain rate limiting of non-reactive traffic (UDP).
	DropType CCType = iota
	// ECNType serves ECN-based CC algorithms (DCTCP): packets are marked
	// when the A-Gap exceeds the AQ's ECN threshold.
	ECNType
	// DelayType serves delay-based CC algorithms (Swift): the virtual
	// queuing delay A(k)/R is accumulated into the packet header.
	DelayType
)

// String implements fmt.Stringer.
func (c CCType) String() string {
	switch c {
	case DropType:
		return "drop"
	case ECNType:
		return "ecn"
	case DelayType:
		return "delay"
	default:
		return fmt.Sprintf("CCType(%d)", uint8(c))
	}
}

// Config is the AQ configuration the controller deploys to a switch
// (Table 1: CC fields, AQ ID, AQ rate, AQ limit; gap and last_time are the
// runtime registers).
type Config struct {
	ID   packet.AQID
	Rate units.BitRate // allocated rate R
	// Limit is the maximum A-Gap in bytes; packets arriving with the gap
	// beyond it are dropped (§3.2.2). Zero selects DefaultLimit.
	Limit int
	CC    CCType
	// ECNThreshold is the virtual marking threshold in bytes, used when
	// CC == ECNType. Zero selects DefaultECNThreshold.
	ECNThreshold int
}

// Default A-Gap parameters. The paper ties AQ limit configuration to the
// physical-queue limit (§6); these defaults match the simulator's default
// physical queue and work for all reproduced experiments.
const (
	DefaultLimit        = 200 * 1000 // 200 KB
	DefaultECNThreshold = 65 * 1000  // 65 KB, DCTCP-style K for 10G
)

// AQ is one augmented queue: the deployed configuration plus the two runtime
// registers of Algorithm 1 (gap and last_time). The paper stores these in
// switch SRAM; the 15-byte-per-AQ layout is modelled in internal/control.
//
// An AQ has a single owner: the goroutine of the engine its switch runs on.
// Process, Update, the fluid kernels, SetRate and Reset all mutate the
// registers and counters as plain fields — exactly one register transaction
// per packet, as on the switch — so two goroutines must never drive one AQ,
// and Stats is only safe from the owner or after the run has quiesced.
type AQ struct {
	id           packet.AQID
	rate         float64 // bytes per nanosecond
	rateBits     units.BitRate
	limit        float64 // bytes
	cc           CCType
	ecnThreshold float64 // bytes

	gap      float64  // A-Gap in bytes
	lastTime sim.Time // arrival time of the previous packet

	// Counters, exposed through Stats. Plain (non-atomic) fields, per the
	// single-owner rule above; the harness snapshots results only after a
	// run completes (the worker pool's WaitGroup provides the
	// happens-before edge).
	arrived      uint64
	arrivedBytes uint64
	drops        uint64
	marks        uint64

	// Fluid-lane counters, kept separate from the packet counters so the
	// per-packet accounting stays exact when both lanes feed one AQ. Bytes
	// are fractional: an epoch integrates a real-valued rate.
	fluidBytes   float64 // bytes offered by fluid epochs
	fluidDropped float64 // bytes shed by the AQ-limit excess rule
	fluidMarked  float64 // accepted bytes ECN-marked (mark-fraction weighted)
}

// AQStats is a snapshot of an AQ's per-packet counters, mirroring
// Table.Stats.
type AQStats struct {
	Arrived      uint64 `json:"arrived"`
	ArrivedBytes uint64 `json:"arrived_bytes"`
	Drops        uint64 `json:"drops"`
	Marks        uint64 `json:"marks"`
	// Fluid-lane counters; omitted when the AQ never saw a fluid epoch, so
	// snapshots (and the fingerprints folded over them) are byte-identical
	// with the fluid lane disabled.
	FluidBytes   float64 `json:"fluid_bytes,omitempty"`
	FluidDropped float64 `json:"fluid_dropped,omitempty"`
	FluidMarked  float64 `json:"fluid_marked,omitempty"`
}

// Stats returns a snapshot of the arrival/drop/mark counters.
func (a *AQ) Stats() AQStats {
	return AQStats{
		Arrived:      a.arrived,
		ArrivedBytes: a.arrivedBytes,
		Drops:        a.drops,
		Marks:        a.marks,
		FluidBytes:   a.fluidBytes,
		FluidDropped: a.fluidDropped,
		FluidMarked:  a.fluidMarked,
	}
}

// New builds an AQ from a configuration, applying defaults.
func New(cfg Config) *AQ {
	a := new(AQ)
	a.init(cfg)
	return a
}

// init configures an AQ in place, applying defaults. Shared by New and the
// slab-allocating DeployBatch so both construction paths stay identical.
func (a *AQ) init(cfg Config) {
	limit := cfg.Limit
	if limit == 0 {
		limit = DefaultLimit
	}
	ecn := cfg.ECNThreshold
	if ecn == 0 {
		ecn = DefaultECNThreshold
	}
	*a = AQ{
		id:           cfg.ID,
		rate:         cfg.Rate.BytesPerNano(),
		rateBits:     cfg.Rate,
		limit:        float64(limit),
		cc:           cfg.CC,
		ecnThreshold: float64(ecn),
	}
}

// ID returns the AQ's identifier.
func (a *AQ) ID() packet.AQID { return a.id }

// Rate returns the allocated rate R.
func (a *AQ) Rate() units.BitRate { return a.rateBits }

// Limit returns the maximum A-Gap in bytes.
func (a *AQ) Limit() int { return int(a.limit) }

// CC returns the configured feedback type.
func (a *AQ) CC() CCType { return a.cc }

// Gap returns the current A-Gap in bytes.
func (a *AQ) Gap() float64 { return a.gap }

// SetRate updates the allocated rate R in place. The controller uses this
// in weighted mode when the set of active entities sharing a link changes
// (§4.1): the gap register is preserved, only the drain rate changes.
func (a *AQ) SetRate(r units.BitRate) {
	a.rate = r.BytesPerNano()
	a.rateBits = r
}

// advance is the packet path's drain step (Update): it drains the A-Gap at
// the allocated rate R for the time elapsed since the previous arrival,
// clamped at zero, and moves last_time forward. The fluid path drains the
// same registers inside OnFluidRun's locals instead of calling it:
//
//	Δ = now - aq.last_time
//	aq.gap = max(0, aq.gap - Δ·aq.rate)
//	aq.last_time = now
func (a *AQ) advance(now sim.Time) {
	delta := float64(now - a.lastTime)
	if delta > 0 {
		a.gap -= delta * a.rate
		if a.gap < 0 {
			a.gap = 0
		}
	}
	a.lastTime = now
}

// Update runs Algorithm 1 for a packet arriving at time now with the given
// size in bytes, and returns the new A-Gap:
//
//	Δ = pkt.time - aq.last_time
//	aq.gap = max(0, aq.gap - Δ·aq.rate) + pkt.size
//	aq.last_time = pkt.time
//
// A packet is the degenerate arrival stream: all its bytes land at one
// instant, so the drain (advance) and the deposit commute trivially. The
// fluid path integrates the same recurrence over an interval instead
// (OnFluidRun in arrival.go).
func (a *AQ) Update(now sim.Time, size int) float64 {
	a.advance(now)
	a.gap += float64(size)
	return a.gap
}

// Verdict is the outcome of running the traffic-control framework
// (Algorithm 2) on one packet.
type Verdict uint8

const (
	// Pass lets the packet continue, possibly mutated (CE mark, virtual
	// delay stamp).
	Pass Verdict = iota
	// Drop discards the packet before it enters the network.
	Drop
)

// Process runs Algorithm 1 followed by Algorithm 2 on packet p arriving at
// time now. On Drop the A-Gap is decremented by the packet size again
// (Algorithm 2 lines 2–4), so dropped traffic does not count against the
// entity's allocation.
func (a *AQ) Process(now sim.Time, p *packet.Packet) Verdict {
	a.arrived++
	a.arrivedBytes += uint64(p.Size)
	gap := a.Update(now, p.Size)
	if gap > a.limit {
		a.gap = gap - float64(p.Size)
		a.drops++
		return Drop
	}
	if a.cc == ECNType && gap > a.ecnThreshold && p.EcnCapable {
		p.CE = true
		a.marks++
	}
	// Virtual queuing delay: the time the AQ needs to "drain" the current
	// A-Gap at rate R, accumulated along the path (§3.3.2). It is stamped
	// for every CC type — delay-based CC consumes it as feedback, and §5.5
	// reports its distribution as the AQ analogue of queuing delay.
	if a.rate > 0 {
		p.VirtualDelay += sim.Time(gap / a.rate)
	}
	return Pass
}

// VirtualDelay returns the current virtual queuing delay A(t)/R without
// processing a packet; exposed for stats collection.
func (a *AQ) VirtualDelay() sim.Time {
	if a.rate <= 0 {
		return 0
	}
	return sim.Time(a.gap / a.rate)
}

// Reset clears the runtime registers; used when an AQ is redeployed.
func (a *AQ) Reset() {
	a.gap = 0
	a.lastTime = 0
	a.arrived, a.arrivedBytes, a.drops, a.marks = 0, 0, 0, 0
	a.fluidBytes, a.fluidDropped, a.fluidMarked = 0, 0, 0
}
