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
//
// OnFluidRun is the one arithmetic body: a run of entities offered to one
// AQ in one epoch is one pass. Its first entity takes the slope step over
// what is left of the epoch, before the loop; every later entity lands as a
// point deposit, the only form the loop holds. The caller's running sums
// (FluidTotals) fold inside that loop, beside the gap and the fluid
// counters: the gap register costs two dependent adds per entity, and the
// sums' independent chains overlap it, where a second walk over the run
// would pay for them again.

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
	var sums FluidTotals
	a.OnFluidRun(now, dt, []float64{bytes}, accepted[:], dropped[:], mark[:], delay[:], &sums)
	return FluidFeedback{
		Accepted: accepted[0],
		Dropped:  dropped[0],
		MarkFrac: mark[0],
		Gap:      a.gap,
		Delay:    delay[0],
	}
}

// FluidTotals are a caller's running sums over the outcomes of fluid runs:
// OnFluidRun adds each entity's accepted bytes, its dropped bytes and its
// accepted rate accepted/float64(dt), one entity at a time in run order, to
// whatever the sums already hold. Folding them inside the kernel is nearly
// free: each is one add per entity whose chain overlaps the gap
// register's.
type FluidTotals struct {
	Accepted     float64 // accepted bytes
	Dropped      float64 // bytes shed by the AQ-limit rule
	AcceptedRate float64 // accepted bytes per ns of dt
}

// OnFluidRun integrates a run of consecutive entity epochs through the AQ
// as one register transaction: entity i offered bytes[i] at a constant rate
// over (now-dt, now], and the entities arrive in slice order, exactly as
// len(bytes) successive OnFluidEpoch calls would deliver them. gap,
// last_time, the fluid counters and the caller's sums live in locals for
// the whole run and are written back once; every per-entity operand and
// operation order is that of the single-epoch form, so the registers, the
// counters, the sums and every output are bit-identical to the call
// sequence.
//
// Only the run's first entity integrates over an interval: the slope form,
// over what is left of the epoch. If packet arrivals already advanced
// last_time into this epoch, that is the remaining sub-interval, and the
// first entity's full mass is spread over it; the displacement is at most
// one epoch, within the fidelity contract of the fluid lane. The first
// entity leaves last_time at now, so nothing of the epoch is left for the
// rest of the run: their mass lands as point deposits, exactly the packet
// form. The first entity is stepped whole before the loop, so the loop over
// the rest holds the point-deposit form alone; the limit rule both share is
// limitShed.
//
// accepted and dropped (each at least len(bytes) long) receive the
// per-entity split, and sums takes the run's running totals in the same
// loop: their chains of adds overlap the gap register's, so a caller needs
// no second walk over the outcomes to sum them (see FluidTotals).
// mark and delay are optional: when non-nil they receive the mark fraction
// and the virtual delay gap/R at the entity's boundary — the Delay cohorts
// are the only caller that pays for the divide.
func (a *AQ) OnFluidRun(now, dt sim.Time, bytes, accepted, dropped, mark []float64, delay []sim.Time, sums *FluidTotals) {
	if len(bytes) == 0 {
		return
	}
	start := now - dt
	if dt <= 0 || a.lastTime > start {
		start = a.lastTime
	}
	width, fdt := float64(now-start), float64(dt)
	gap, rate, limit, k := a.gap, a.rate, a.limit, a.ecnThreshold
	ecn := a.cc == ECNType
	fluidBytes, fluidDropped, fluidMarked := a.fluidBytes, a.fluidDropped, a.fluidMarked
	sumAcc, sumDrp, sumRate := sums.Accepted, sums.Dropped, sums.AcceptedRate
	accepted, dropped = accepted[:len(bytes)], dropped[:len(bytes)]

	// The first entity: the slope form over what is left of the epoch, or a
	// point deposit when nothing is left.
	b := bytes[0]
	if b < 0 {
		b = 0
	}
	var g1, markFrac float64
	if width > 0 {
		slope := b/width - rate
		g1 = gap + slope*width
		if g1 < 0 {
			g1 = 0
		}
		if ecn {
			markFrac = markFraction(gap, slope, width, k)
		}
	} else if g1 = gap + b; ecn && g1 > k {
		markFrac = 1
	}
	gap, acc, d := limitShed(g1, b, limit)
	fluidBytes += b
	fluidDropped += d
	fluidMarked += acc * markFrac
	sumAcc += acc
	sumDrp += d
	sumRate += acc / fdt
	accepted[0], dropped[0] = acc, d
	if mark != nil {
		mark[0] = markFrac
	}
	if delay != nil {
		delay[0] = 0
		if rate > 0 {
			delay[0] = sim.FromFloat(gap / rate)
		}
	}
	// Every later entity: a point deposit, exactly the packet form.
	for i := 1; i < len(bytes); i++ {
		b := bytes[i]
		if b < 0 {
			b = 0
		}
		g1, markFrac := gap+b, 0.0
		if ecn && g1 > k {
			markFrac = 1
		}
		gap, acc, d = limitShed(g1, b, limit)
		fluidBytes += b
		fluidDropped += d
		fluidMarked += acc * markFrac
		sumAcc += acc
		sumDrp += d
		sumRate += acc / fdt
		accepted[i], dropped[i] = acc, d
		if mark != nil {
			mark[i] = markFrac
		}
		if delay != nil {
			delay[i] = 0
			if rate > 0 {
				delay[i] = sim.FromFloat(gap / rate)
			}
		}
	}
	a.gap = gap
	a.lastTime = now
	a.fluidBytes, a.fluidDropped, a.fluidMarked = fluidBytes, fluidDropped, fluidMarked
	sums.Accepted, sums.Dropped, sums.AcceptedRate = sumAcc, sumDrp, sumRate
}

// limitShed is the fluid form of the AQ-limit rule for an entity of mass b
// that took the gap to g1: the gap may not end the epoch beyond the limit,
// and the excess d is shed and (as in Algorithm 2) does not count against
// the allocation. It returns the gap after the shed, the accepted bytes and
// d.
func limitShed(g1, b, limit float64) (gap, acc, d float64) {
	d = g1 - limit
	if d < 0 {
		d = 0
	}
	if d > b {
		d = b
	}
	return g1 - d, b - d, d
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
// path's pass-through. The switch's work-conservation bypass is
// packet-only (it consults a physical queue the fluid lane never enters),
// and fluid epochs are not traced.
func (t *Table) ProcessFluid(now sim.Time, id packet.AQID, bytes float64, dt sim.Time) FluidFeedback {
	if id == packet.NoAQ {
		return FluidFeedback{Accepted: bytes}
	}
	t.fluidEpochs++
	aq := t.aqs.Get(id)
	if aq == nil {
		t.fluidMisses++
		return FluidFeedback{Accepted: bytes}
	}
	return aq.OnFluidEpoch(now, bytes, dt)
}

// CountFluid adds n per-entity epoch integrations, misses of them, to the
// fluid counters: a lane that resolves its runs with Lookup and integrates
// them itself reports an epoch's counts in one call, and they read as n
// ProcessFluid calls would have left them.
func (t *Table) CountFluid(n, misses uint64) {
	t.fluidEpochs += n
	t.fluidMisses += misses
}
