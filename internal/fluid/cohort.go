package fluid

import (
	"sort"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// tagRun is what registration fixed for one maximal run of consecutively
// registered entities with equal tag, demand cap and registered rate — the
// configuration half of the paper's Table 1 split. AddN extends the last
// run or appends one, so a population attached n identical entities at a
// time stores its constants once per run, not n times.
type tagRun struct {
	end    int32 // one past the run's last entity index in the cohort
	aqid   packet.AQID
	demand float64 // cap on rate, bytes/ns (0 = none)
	rate   float64 // registered rate, bytes/ns: a Fixed entity's rate for good, a reactive one's first
}

// capped returns rate held to the demand cap: an entity's pre-clip demanded
// rate ("want") for an epoch. It is derived wherever it is used rather than
// stored, because it is a pure function of a constant and one other value.
func capped(rate, demand float64) float64 {
	if demand > 0 && rate > demand {
		return demand
	}
	return rate
}

// want returns the want of every entity of a Fixed cohort's run.
func (r tagRun) want() float64 { return capped(r.rate, r.demand) }

// cohort is a maximal run of consecutively-registered entities sharing one
// (pipe, Params) class. What registration fixed lives in the run table;
// what the model evolves lives in parallel slices — structure of arrays —
// so the epoch loop streams through contiguous float64 lanes instead of
// pointer-chasing one heap object per entity, and the model and its
// constants are a property of the cohort, not of each entity. State is
// stored where it varies, at exact size when the lane first starts:
//
//   - A Fixed cohort holds delivered and dropped once per run, 16 B a run.
//     Every entity of a run is offered the same bytes, so the lane steps
//     the cohort run by run (Lane.stepFixed). An untagged run's entities
//     also pass no AQ and are clipped alike: its slots hold each entity's
//     own numbers, one update an epoch. A tagged run's entities meet their
//     AQ one after another and come out apart: its slots hold the run's
//     sums, every entity's outcome folded in in entity order, and an
//     entity reads an even share of them (outcomeAt).
//   - A reactive cohort holds delivered and dropped per entity, 16 B an
//     entity, and rate, and for ECN alpha.
//
// The class follows from the model alone, so a cohort never changes
// layout. A run whose slots already hold sums is never extended: an AddN
// on a laid-out Fixed cohort opens a run of its own.
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

	// runs partitions the entity indices in order. Tags are not part of the
	// cohort key: the lane integrates each run as one AQ transaction.
	runs []tagRun

	// Parallel state, nil until a Start lays the cohort out: one slot per
	// entity, or per run for a Fixed cohort's delivered and dropped.
	rate      []float64 // current sending rate, bytes/ns; reactive models only
	alpha     []float64 // DCTCP mark-fraction EWMA; allocated for ECN only
	delivered []float64 // cumulative accepted bytes
	dropped   []float64 // cumulative dropped bytes (link clip + AQ)
}

// matches reports whether an entity with the given placement and model
// extends this cohort's run. Params is all-scalar, so == is exact class
// identity.
func (c *cohort) matches(pipe int32, par Params) bool {
	return c.pipe == pipe && c.par == par
}

// size returns the cohort's entity count: the end of its last run.
func (c *cohort) size() int { return int(c.runs[len(c.runs)-1].end) }

// layout extends the cohort's arrays over the entities (or, in a Fixed
// cohort, the runs) registered since the last call, a reactive entity's
// rate from its run's registered (floored) rate, walking the run table
// back from its end. The first call allocates each array at exactly its
// size; a later one appends the tail.
func (c *cohort) layout() {
	n, from := c.size(), len(c.delivered)
	if c.par.Model == Fixed {
		n = len(c.runs)
	}
	c.delivered, c.dropped = extend(c.delivered, n), extend(c.dropped, n)
	if c.par.Model == Fixed {
		return
	}
	if c.par.Model == ECN {
		c.alpha = extend(c.alpha, n)
	}
	c.rate = extend(c.rate, n)
	for i, ri := n-1, len(c.runs)-1; i >= from; i-- {
		if ri > 0 && int32(i) < c.runs[ri-1].end {
			ri--
		}
		c.rate[i] = c.runs[ri].rate
	}
}

// extend returns s zero-extended to n, allocated at exactly n when empty.
func extend(s []float64, n int) []float64 {
	if len(s) == 0 {
		return make([]float64, n)
	}
	return append(s, make([]float64, n-len(s))...)
}

// runIndex returns the index of the run holding entity i.
func (c *cohort) runIndex(i int32) int {
	return sort.Search(len(c.runs), func(k int) bool { return c.runs[k].end > i })
}

// runOf returns the run holding entity i.
func (c *cohort) runOf(i int32) *tagRun { return &c.runs[c.runIndex(i)] }

// rateAt returns entity i's current sending rate in bytes/ns: its own once a
// reactive model is laid out, its run's registered rate otherwise.
func (c *cohort) rateAt(i int32) float64 {
	if c.rate != nil {
		return c.rate[i]
	}
	return c.runOf(i).rate
}

// outcomeAt returns entity i's cumulative accepted and dropped bytes: 0
// before its cohort is laid out, its own slots' in a reactive cohort, and
// in a Fixed one its run's, which for a tagged run hold the sums over its
// n entities and are read over n (Entity.Delivered states the split).
func (c *cohort) outcomeAt(i int32) (delivered, dropped float64) {
	switch {
	case c.delivered == nil:
		return 0, 0
	case c.par.Model != Fixed:
		return c.delivered[i], c.dropped[i]
	}
	ri := c.runIndex(i)
	delivered, dropped = c.delivered[ri], c.dropped[ri]
	if r := c.runs[ri]; r.aqid != packet.NoAQ {
		n := float64(r.end)
		if ri > 0 {
			n -= float64(c.runs[ri-1].end)
		}
		delivered, dropped = delivered/n, dropped/n
	}
	return delivered, dropped
}

// react folds one epoch's feedback into the rate ODEs of a reactive
// cohort's entities from lo on, one per element of accepted: the
// first-order update of the cohort's model. Each model reads only its own
// signal — dropped for the loss fraction, mark for ECN, delay for Delay.
// demand holds the chunk's demand caps, spread from the run table by the
// caller.
func (c *cohort) react(lo int, accepted, dropped, mark, demand []float64, delay []sim.Time, clip, fdt float64) {
	beta := c.par.Beta
	rate := c.rate[lo:]
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
