package fluid

import (
	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
)

// cohort is a maximal run of consecutively-registered entities sharing one
// (pipe, Params) class. Entity state lives in parallel slices — structure
// of arrays — so the epoch loop streams through contiguous float64 lanes
// instead of pointer-chasing one heap object per entity, and the model
// and its constants are a property of the cohort, not of each entity.
//
// The run-based grouping is what keeps the lane byte-identical to
// the former per-object layout: iterating cohorts in creation order and
// entities in index order replays the exact global registration order, so
// every floating-point accumulation (pipe demand, lane totals, AQ state)
// sees the same operands in the same sequence.
type cohort struct {
	par  Params
	pipe int32 // index into the lane's pipes, -1 for none

	// Per-cohort precomputation of the Params-derived constants the epoch
	// loop consumes per entity: the additive-increase slope ai() and the
	// rate floor(). Same bit patterns as computing them inline — the
	// expressions are deterministic — just hoisted out of the hot loop.
	aiSlope   float64
	floorRate float64

	// Parallel per-entity state. aqid is per-entity (tags are not part of
	// the run key): the lane integrates each maximal run of equal
	// consecutive tags as one AQ transaction.
	aqid      []packet.AQID
	rate      []float64      // current sending rate, bytes/ns
	want      []float64      // pre-clip demanded rate for the current epoch
	demand    []float64      // cap on rate (0 = none)
	alpha     []float64      // DCTCP mark-fraction EWMA; allocated for ECN only
	delivered []float64      // cumulative accepted bytes
	dropped   []float64      // cumulative dropped bytes (link clip + AQ)
	meters    []*stats.Meter // allocated only once some entity has a meter

	hasMeter bool

	// Quiescence state. A Fixed-model cohort whose tags all missed the
	// table (or are untagged), with no meters attached, is inert: given the
	// same clip and epoch width, every per-entity number of the next epoch
	// is exactly the previous one's. One full pass primes the aggregates
	// below; subsequent epochs fold them in O(1) per cohort and count the
	// streak, and materialize() replays the streak into the per-entity
	// slices when anything changes (or on Stop/read).
	primed    bool
	aqGen     uint64  // table generation the all-miss observation was made at
	wantSum   float64 // Σ want[i], the cohort's phase-A demand contribution
	acceptSum float64 // Σ accepted bytes per epoch at (lastClip, lastFdt)
	lastClip  float64
	lastFdt   float64
	streak    uint64 // epochs skipped since the last full pass
}

// matches reports whether an entity with the given placement extends this
// cohort's run. Params is all-scalar, so == is exact class identity.
func (c *cohort) matches(pipe int32, par Params) bool {
	return c.pipe == pipe && c.par == par
}

// materialize replays a quiescent streak into the per-entity slices: each
// skipped epoch delivered want·clip·fdt bytes and shed the link-clip
// remainder, for every entity, with no AQ involved (the cohort was
// all-miss). Called before any state-changing step and on Stop.
func (c *cohort) materialize() {
	if c.streak == 0 {
		return
	}
	k := float64(c.streak)
	for i := range c.rate {
		x := c.want[i] * c.lastClip * c.lastFdt
		cl := c.want[i]*c.lastFdt - x
		if cl < 0 {
			cl = 0
		}
		c.delivered[i] += k * x
		c.dropped[i] += k * cl
	}
	c.streak = 0
}

// deliveredAt returns entity i's cumulative accepted bytes with any active
// streak folded in read-only — accessors must not mutate lane state.
func (c *cohort) deliveredAt(i int32) float64 {
	d := c.delivered[i]
	if c.streak > 0 {
		d += float64(c.streak) * (c.want[i] * c.lastClip * c.lastFdt)
	}
	return d
}

// droppedAt returns entity i's cumulative dropped bytes, streak folded in.
func (c *cohort) droppedAt(i int32) float64 {
	d := c.dropped[i]
	if c.streak > 0 {
		x := c.want[i] * c.lastClip * c.lastFdt
		cl := c.want[i]*c.lastFdt - x
		if cl < 0 {
			cl = 0
		}
		d += float64(c.streak) * cl
	}
	return d
}

// prime records the quiescence aggregates after a full pass found the
// cohort inert (Fixed, every tag missed or absent, no meters): every entity
// was accepted in full, so the sums are recomputed from want in entity
// order, exactly as the pass accumulated them. Nothing about the cohort can
// change until the clip, the epoch width, the table membership or the
// population does.
func (c *cohort) prime(gen uint64, clip, fdt float64) {
	var wantSum, acceptSum float64
	for _, w := range c.want {
		wantSum += w
		acceptSum += float64(w * clip * fdt)
	}
	c.primed = true
	c.aqGen = gen
	c.wantSum, c.acceptSum = wantSum, acceptSum
	c.lastClip, c.lastFdt = clip, fdt
}

// react folds one epoch's feedback into the rate ODEs of the entities from
// lo on, one per element of accepted: the first-order update of the
// cohort's model. Each model reads only its own signal — dropped for the
// loss fraction, mark for ECN, delay for Delay — and Fixed reads none.
func (c *cohort) react(lo int, accepted, dropped, mark []float64, delay []sim.Time, clip, fdt float64) {
	if c.par.Model == Fixed {
		return
	}
	beta := c.par.Beta
	rate, demand := c.rate[lo:], c.demand[lo:]
	for j, acc := range accepted {
		loss := core.FluidFeedback{Accepted: acc, Dropped: dropped[j]}.LossFrac()
		if clip < 1 {
			loss = 1 - clip*(1-loss)
		}
		r := rate[j]
		switch c.par.Model {
		case Loss:
			if loss > 1e-9 {
				r *= 1 - beta
			} else {
				r += c.aiSlope * fdt
			}
		case ECN:
			g := c.par.Gain
			a := (1-g)*c.alpha[lo+j] + g*mark[j]
			c.alpha[lo+j] = a
			if mark[j] > 1e-9 || loss > 1e-9 {
				cut := a / 2
				if loss > 1e-9 && cut < beta {
					cut = beta // losses still halve, as DCTCP does
				}
				r *= 1 - cut
			} else {
				r += c.aiSlope * fdt
			}
		case Delay:
			if d, target := float64(delay[j]), float64(c.par.Target); d > target && d > 0 {
				f := 1 - beta*(d-target)/d
				if f < 0.3 {
					f = 0.3
				}
				r *= f
			} else if loss > 1e-9 {
				r *= 1 - beta
			} else {
				r += c.aiSlope * fdt
			}
		}
		if r < c.floorRate {
			r = c.floorRate
		}
		if d := demand[j]; d > 0 && r > d {
			r = d
		}
		rate[j] = r
	}
}
