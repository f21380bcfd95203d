package core

import (
	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// This file is the fluid half of the A-Gap: arrivals as rates, not packets.
//
// Expression 7 defines the A-Gap over an entity's arrival *rate*, not its
// packets; Algorithm 1 is merely the streaming form for the special case
// where arrivals are point masses. The same clamped integral admits a
// second streaming form for piecewise-constant rates: over an epoch of
// width dt in which the entity contributes `bytes`, the arrival rate is
// r = bytes/dt and the gap trajectory is the clamped linear function
//
//	g(t) = max(0, g0 + (r - R)·t),  t in [0, dt]
//
// which OnFluidEpoch evaluates in closed form. Both forms share the
// rate-integration kernel AQ.advance: the packet form drains then deposits
// a point mass, the fluid form folds the deposit into the slope. The
// equivalence is exercised by TestFluidPacketEquivalence: a constant-rate
// stream produces the same clamped trajectory through either entry point,
// to within one epoch of quantization.

// FluidFeedback is the outcome of integrating one fluid epoch through an
// AQ — the fluid analogue of Verdict, with the binary drop/mark decisions
// of Algorithm 2 widened to fractions of the epoch's bytes so fluid
// senders can react to them as probabilities.
type FluidFeedback struct {
	// Accepted is the portion of the offered bytes that counted against
	// the entity's allocation; Dropped is the excess shed by the AQ-limit
	// rule (the fluid form of Algorithm 2 lines 2-4: dropped traffic does
	// not accrue gap).
	Accepted float64
	Dropped  float64
	// MarkFrac is the fraction of the epoch during which arrivals saw the
	// gap above the ECN threshold — the marking probability an ECN-based
	// fluid sender feeds into its reduction term. Zero unless the AQ is
	// ECNType.
	MarkFrac float64
	// Gap is the A-Gap at the epoch boundary, after the limit rule.
	Gap float64
	// Delay is the virtual queuing delay Gap/R at the epoch boundary, the
	// feedback signal for delay-based fluid senders.
	Delay sim.Time
}

// LossFrac returns the dropped fraction of the offered bytes — the drop
// probability a loss-based fluid sender reacts to.
func (fb FluidFeedback) LossFrac() float64 {
	total := fb.Accepted + fb.Dropped
	if total <= 0 {
		return 0
	}
	return fb.Dropped / total
}

// OnFluidEpoch integrates one fluid epoch through the AQ: `bytes` arrived
// at a constant rate over (now-dt, now]. It advances the same registers as
// Update — the two entry points may interleave on one AQ — and returns the
// epoch's feedback. It is the n = 1 call of OnFluidRun, which holds the
// arithmetic.
func (a *AQ) OnFluidEpoch(now sim.Time, bytes float64, dt sim.Time) FluidFeedback {
	var accepted, dropped, mark [1]float64
	var delay [1]sim.Time
	a.OnFluidRun(now, dt, []float64{bytes}, accepted[:], dropped[:], mark[:], delay[:])
	return FluidFeedback{
		Accepted: accepted[0],
		Dropped:  dropped[0],
		MarkFrac: mark[0],
		Gap:      a.gap,
		Delay:    delay[0],
	}
}

// OnFluidRun integrates a run of consecutive entity epochs through the AQ
// as one register transaction: entity i offered bytes[i] at a constant rate
// over (now-dt, now], and the entities arrive in slice order, exactly as
// len(bytes) successive OnFluidEpoch calls would deliver them. gap,
// last_time and the fluid counters live in locals for the whole run and are
// written back once; every per-entity operand and operation order is that
// of the single-epoch form, so the registers, the counters and every output
// are bit-identical to the call sequence.
//
// If packet arrivals already advanced last_time into this epoch, only the
// remaining sub-interval is integrated and the first entity's full mass is
// spread over it; the displacement is at most one epoch, within the
// fidelity contract of the fluid lane. The first entity leaves last_time at
// now, so nothing of the epoch is left for the rest of the run: their mass
// lands as point deposits, exactly the packet form.
//
// accepted and dropped (each at least len(bytes) long) receive the
// per-entity split. mark and delay are optional: when non-nil they receive
// the mark fraction and the virtual delay gap/R at the entity's boundary —
// the Delay cohorts are the only caller that pays for the divide.
func (a *AQ) OnFluidRun(now, dt sim.Time, bytes, accepted, dropped, mark []float64, delay []sim.Time) {
	if len(bytes) == 0 {
		return
	}
	start := now - dt
	if dt <= 0 || a.lastTime > start {
		start = a.lastTime
	}
	width := float64(now - start)
	gap, rate, limit, k := a.gap, a.rate, a.limit, a.ecnThreshold
	ecn := a.cc == ECNType
	fluidBytes, fluidDropped, fluidMarked := a.fluidBytes, a.fluidDropped, a.fluidMarked
	accepted, dropped = accepted[:len(bytes)], dropped[:len(bytes)]
	for i, b := range bytes {
		if b < 0 {
			b = 0
		}
		var g1, markFrac float64
		if width <= 0 {
			// Nothing left of the epoch to integrate: the mass lands as a
			// point deposit, exactly the packet form.
			g1 = gap + b
			if ecn && g1 > k {
				markFrac = 1
			}
		} else {
			slope := b/width - rate
			g1 = gap + slope*width
			if g1 < 0 {
				g1 = 0
			}
			if ecn {
				markFrac = markFraction(gap, slope, width, k)
			}
		}
		// The fluid form of the AQ-limit rule: the gap may not end the
		// epoch beyond the limit; the excess is shed and (as in Algorithm
		// 2) does not count against the allocation.
		d := g1 - limit
		if d < 0 {
			d = 0
		}
		if d > b {
			d = b
		}
		gap = g1 - d
		acc := b - d
		fluidBytes += b
		fluidDropped += d
		fluidMarked += acc * markFrac
		accepted[i], dropped[i] = acc, d
		if mark != nil {
			mark[i] = markFrac
		}
		if delay != nil {
			delay[i] = 0
			if rate > 0 {
				delay[i] = sim.Time(gap / rate)
			}
		}
		width = 0 // last_time is now at the boundary
	}
	a.gap = gap
	a.lastTime = now
	a.fluidBytes, a.fluidDropped, a.fluidMarked = fluidBytes, fluidDropped, fluidMarked
}

// markFraction returns the fraction of [0, width] during which the linear
// gap trajectory g0 + slope·t sits above the threshold k.
func markFraction(g0, slope, width, k float64) float64 {
	switch {
	case slope > 0:
		if g0 >= k {
			return 1
		}
		t := (k - g0) / slope
		if t >= width {
			return 0
		}
		return (width - t) / width
	case slope < 0:
		if g0 <= k {
			return 0
		}
		t := (g0 - k) / -slope
		if t >= width {
			return 1
		}
		return t / width
	default:
		if g0 > k {
			return 1
		}
		return 0
	}
}

// ProcessFluid is the fluid counterpart of Table.Process: it matches the
// tag and integrates the epoch through the deployed AQ. Unmatched or
// untagged streams pass with everything accepted, mirroring the packet
// path's pass-through. The work-conservation bypass is packet-only (it
// consults a physical queue the fluid lane never enters), and fluid
// epochs are not traced.
func (t *Table) ProcessFluid(now sim.Time, id packet.AQID, bytes float64, dt sim.Time) FluidFeedback {
	if id == packet.NoAQ {
		return FluidFeedback{Accepted: bytes}
	}
	t.fluidEpochs.Add(1)
	aq := t.aqs.Get(id)
	if aq == nil {
		t.fluidMisses.Add(1)
		return FluidFeedback{Accepted: bytes}
	}
	return aq.OnFluidEpoch(now, bytes, dt)
}
