package fluid

import (
	"slices"
	"sort"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
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
//   - A Fixed cohort whose runs are all untagged holds delivered and
//     dropped once per run, 16 B a run. Every entity of such a run is
//     offered the same bytes, passes no AQ and is clipped alike, so one
//     slot update per epoch is bit for bit each entity's own.
//   - Any other Fixed cohort holds delivered and dropped per entity, 16 B
//     an entity; the reactive models add rate, and ECN alpha.
//
// The one layout change is from the first to the second: a tagged run
// joining a per-run cohort (AddN) copies every run slot out to its
// entities, after settling any quiescent streak.
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
	// entity, or per run for delivered and dropped while perRun holds.
	rate      []float64      // current sending rate, bytes/ns; reactive models only
	alpha     []float64      // DCTCP mark-fraction EWMA; allocated for ECN only
	delivered []float64      // cumulative accepted bytes
	dropped   []float64      // cumulative dropped bytes (link clip + AQ)
	meters    []*stats.Meter // per entity, allocated only once some entity has a meter
	perRun    bool           // delivered and dropped hold one slot per run (Fixed, all untagged)

	// Quiescence state. A Fixed-model cohort whose tags all missed the
	// table (or are untagged), with no meters attached, is inert: given the
	// same clip and epoch width, every per-entity number of the next epoch
	// is exactly the previous one's. One full pass primes the aggregates
	// below; subsequent epochs fold them in O(1) per cohort and count the
	// streak, and materialize() replays the streak into the delivered and
	// dropped slots when anything changes (or on Stop/read).
	primed    bool
	aqGen     uint64  // table generation the all-miss observation was made at
	wantSum   float64 // Σ want, the cohort's phase-A demand contribution
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

// size returns the cohort's entity count: the end of its last run.
func (c *cohort) size() int { return int(c.runs[len(c.runs)-1].end) }

// layout extends the cohort's arrays over the entities (or runs) registered
// since the last call, a reactive entity's rate from its run's registered
// (floored) rate, walking the run table back from its end. The first call
// picks the layout and allocates each array at exactly its size; a later
// one appends the tail.
func (c *cohort) layout() {
	if c.delivered == nil && c.par.Model == Fixed {
		c.perRun = !slices.ContainsFunc(c.runs, func(r tagRun) bool { return r.aqid != packet.NoAQ })
	}
	n, from := c.size(), len(c.delivered)
	if c.perRun {
		n = len(c.runs)
	}
	c.delivered, c.dropped = extend(c.delivered, n), extend(c.dropped, n)
	if c.par.Model == ECN {
		c.alpha = extend(c.alpha, n)
	}
	if c.par.Model != Fixed {
		c.rate = extend(c.rate, n)
		for i, ri := n-1, len(c.runs)-1; i >= from; i-- {
			if ri > 0 && int32(i) < c.runs[ri-1].end {
				ri--
			}
			c.rate[i] = c.runs[ri].rate
		}
	}
}

// extend returns s zero-extended to n, allocated at exactly n when empty.
func extend(s []float64, n int) []float64 {
	if len(s) == 0 {
		return make([]float64, n)
	}
	return append(s, make([]float64, n-len(s))...)
}

// expand lays a per-run cohort out per entity, every entity's slots an
// exact copy of its run's. AddN calls it, after settling the streak, when a
// tagged run joins the cohort: from then on its entities no longer all see
// the same operands.
func (c *cohort) expand() {
	n := c.size()
	delivered, dropped := make([]float64, n), make([]float64, n)
	lo := int32(0)
	for ri, r := range c.runs {
		d, p := delivered[lo:r.end], dropped[lo:r.end]
		for i := range d {
			d[i], p[i] = c.delivered[ri], c.dropped[ri]
		}
		lo = r.end
	}
	c.delivered, c.dropped, c.perRun = delivered, dropped, false
}

// runIndex returns the index of the run holding entity i.
func (c *cohort) runIndex(i int32) int {
	return sort.Search(len(c.runs), func(k int) bool { return c.runs[k].end > i })
}

// runOf returns the run holding entity i.
func (c *cohort) runOf(i int32) *tagRun { return &c.runs[c.runIndex(i)] }

// slots returns the delivered and dropped slots of run ri from its entity
// lo on: one per entity, or the run's one in a per-run cohort.
func (c *cohort) slots(ri int, lo int32) (delivered, dropped []float64) {
	from, to := int(lo), int(c.runs[ri].end)
	if c.perRun {
		from, to = ri, ri+1
	}
	return c.delivered[from:to], c.dropped[from:to]
}

// rateAt returns entity i's current sending rate in bytes/ns: its own once a
// reactive model is laid out, its run's registered rate otherwise.
func (c *cohort) rateAt(i int32) float64 {
	if c.rate != nil {
		return c.rate[i]
	}
	return c.runOf(i).rate
}

// streakEpoch returns what one skipped epoch delivered and shed per entity
// of a run wanting w: w·clip·fdt bytes accepted and the link-clip remainder
// dropped, with no AQ involved (a quiescent cohort is Fixed and all-miss).
func (c *cohort) streakEpoch(w float64) (delivered, dropped float64) {
	x := offered(w, c.lastClip, c.lastFdt)
	return x, shed(w, x, 0, c.lastFdt)
}

// materialize replays a quiescent streak into the delivered and dropped
// slots. Called before any state-changing step and on Stop.
func (c *cohort) materialize() {
	if c.streak == 0 {
		return
	}
	k := float64(c.streak)
	lo := int32(0)
	for ri, r := range c.runs {
		x, cl := c.streakEpoch(r.want())
		delivered, dropped := c.slots(ri, lo)
		for i := range delivered {
			delivered[i] += k * x
			dropped[i] += k * cl
		}
		lo = r.end
	}
	c.streak = 0
}

// outcomeAt returns entity i's cumulative accepted and dropped bytes with
// any active streak folded in read-only — accessors must not mutate lane
// state.
func (c *cohort) outcomeAt(i int32) (delivered, dropped float64) {
	if c.delivered == nil {
		return 0, 0
	}
	ri := c.runIndex(i)
	d, p := c.slots(ri, i)
	delivered, dropped = d[0], p[0]
	if c.streak > 0 {
		x, cl := c.streakEpoch(c.runs[ri].want())
		delivered += float64(c.streak) * x
		dropped += float64(c.streak) * cl
	}
	return delivered, dropped
}

// prime records the quiescence aggregates after a full pass found the
// cohort inert (Fixed, every tag missed or absent, no meters): every entity
// was accepted in full, so the sums are folded from the run table one
// entity at a time, exactly as the pass accumulated them. Nothing about the
// cohort can change until the clip, the epoch width, the table membership
// or the population does.
func (c *cohort) prime(gen uint64, clip, fdt float64) {
	var wantSum, acceptSum float64
	lo := int32(0)
	for _, r := range c.runs {
		w := r.want()
		a := offered(w, clip, fdt)
		for ; lo < r.end; lo++ {
			wantSum += w
			acceptSum += a
		}
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
// demand holds the chunk's demand caps, spread from the run table by the
// caller.
func (c *cohort) react(lo int, accepted, dropped, mark, demand []float64, delay []sim.Time, clip, fdt float64) {
	if c.par.Model == Fixed {
		return
	}
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
