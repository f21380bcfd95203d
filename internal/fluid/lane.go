package fluid

import (
	"fmt"
	"math"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/units"
)

// minResidualFrac mirrors topo.Pipe's residual floor: the packet lane is
// never starved below 1/1000 of a link, and symmetrically the fluid lane
// never claims more than 999/1000 of one.
const minResidualFrac = 1.0 / 1000

// DefaultEpoch is the fluid epoch width used when a Lane is built with
// epoch 0 — on the order of a datacenter RTT, so first-order AIMD
// reactions happen at the same cadence as the packet senders they stand
// in for.
const DefaultEpoch = 100 * sim.Microsecond

// pipeAccount tracks one link shared between the lanes: packet bytes
// observed per epoch become the fluid residual, and accepted fluid rate
// is pushed back as the packet lane's residual via SetFluidRate. Capacity
// is re-read from the pipe every epoch, so a runtime set_rate over the
// wire reshapes the residual from the next epoch on.
type pipeAccount struct {
	pipe   *topo.Pipe
	lastTx uint64 // pipe.TxBytes at the previous epoch

	demand   float64 // accumulated fluid demand this epoch, bytes/ns
	clip     float64 // allowed fraction of demand this epoch
	accepted float64 // accepted fluid rate this epoch, bytes/ns
}

// Lane advances a set of fluid entities at a fixed epoch on its engine's
// timer lane. Everything a Lane touches — its table, its pipes, its
// entities — lives on one engine, and epochs are ordinary timer events on
// it.
//
// Entity state is held in structure-of-arrays cohorts (see cohort.go):
// a run table for what registration fixed, arrays for what the model
// evolves, per run in a Fixed cohort and per entity otherwise. The lane
// steps cohorts directly, integrating each run of the table as one
// AQ.OnFluidRun transaction resolved by one Table.Lookup, and folding a
// Fixed run's outcome into its one slot pair. The table's
// fluid counters take an epoch's lookups and misses in one
// Table.CountFluid call. The lane's delivered and dropped totals and each
// pipe's accepted rate fold in that same pass, inside the kernel's loop,
// whose gap chain their add chains overlap (see stepCohort). The steady
// state of fire allocates nothing.
type Lane struct {
	eng   *sim.Engine
	table *core.Table
	epoch sim.Time
	timer *sim.Timer

	cohorts []cohort
	pipes   []pipeAccount
	total   int // entity count across cohorts

	// lookups and misses count this epoch's tagged entity epochs and those
	// of them whose AQ ID resolved to nothing, for Table.CountFluid.
	lookups, misses uint64

	lastFire sim.Time // when the previous epoch fired
	deadline sim.Time // no epochs fire after this (0 = unbounded)
	running  bool

	epochs       uint64
	entityEpochs uint64
	delivered    float64
	dropped      float64
}

// NewLane builds a fluid lane stepping the given table's AQs on eng every
// epoch (0 selects DefaultEpoch).
func NewLane(eng *sim.Engine, table *core.Table, epoch sim.Time) *Lane {
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	l := &Lane{eng: eng, table: table, epoch: epoch}
	l.timer = eng.NewTimer(l.fire)
	return l
}

// Epoch returns the lane's epoch width.
func (l *Lane) Epoch() sim.Time { return l.epoch }

// AddPipe registers a link for residual-rate accounting and returns its
// index for EntityConfig.Pipe. The pipe must belong to the lane's engine:
// an epoch reads and sets the pipe's rate at the lane's clock.
func (l *Lane) AddPipe(p *topo.Pipe) int {
	if p.Engine() != l.eng {
		panic("fluid: pipe belongs to another engine; a lane and its pipes share one")
	}
	l.pipes = append(l.pipes, pipeAccount{
		pipe:   p,
		lastTx: p.TxBytes,
		clip:   1,
	})
	return len(l.pipes) - 1
}

// Add builds an entity from cfg and registers it with the lane, returning
// a stable handle. Consecutive Adds with the same (pipe, params) class
// extend one cohort.
func (l *Lane) Add(cfg EntityConfig) Entity { return l.AddN(cfg, 1) }

// AddN registers n identical entities from cfg — one cohort extension, one
// run of its table extended or appended — and returns the handle of the
// first; the rest follow in registration order via Entities(). A Fixed
// model's cohort stores delivered and dropped once per run, for good.
// Their state is laid out at the next Start, or at once while the lane
// runs or when their cohort already has storage; until then they read 0
// delivered and dropped at their registered rate. It panics on n < 1, a pipe index AddPipe did not return, a Rate or
// Demand that is NaN, infinite or negative (no such rate is ever stored),
// and a cohort that would outgrow the int32 entity index.
func (l *Lane) AddN(cfg EntityConfig, n int) Entity {
	if n <= 0 {
		panic("fluid: AddN needs n >= 1")
	}
	if !validRate(cfg.Rate) || !validRate(cfg.Demand) {
		panic(fmt.Sprintf("fluid: entity rate %v and demand %v must be finite and non-negative", float64(cfg.Rate), float64(cfg.Demand)))
	}
	par := ParamsFor(cfg.CC)
	if cfg.Params != nil {
		par = *cfg.Params
	}
	pipe := int32(-1)
	if cfg.Pipe >= 0 {
		if cfg.Pipe >= len(l.pipes) {
			panic(fmt.Sprintf("fluid: entity pipe index %d out of range", cfg.Pipe))
		}
		pipe = int32(cfg.Pipe)
	}
	ci, first := len(l.cohorts)-1, 0
	extends := ci >= 0 && l.cohorts[ci].matches(pipe, par)
	if extends {
		first = l.cohorts[ci].size()
	}
	if n > math.MaxInt32-first {
		panic(fmt.Sprintf("fluid: %d more entities overflow a cohort of %d", n, first))
	}
	if !extends {
		l.cohorts = append(l.cohorts, cohort{
			par:       par,
			pipe:      pipe,
			aiSlope:   par.ai(),
			floorRate: par.floor(),
		})
		ci++
	}
	c := &l.cohorts[ci]
	rate := cfg.Rate.BytesPerNano()
	if par.Model != Fixed && rate < c.floorRate {
		rate = c.floorRate
	}
	demand := cfg.Demand.BytesPerNano()
	end := int32(first + n)
	// A run of a laid-out Fixed cohort holds its entities' running totals,
	// which new entities do not share: they open a run of their own.
	if last := len(c.runs) - 1; !(par.Model == Fixed && c.delivered != nil) && last >= 0 && c.runs[last].aqid == cfg.AQ && c.runs[last].demand == demand && c.runs[last].rate == rate {
		c.runs[last].end = end
	} else {
		c.runs = append(c.runs, tagRun{end: end, aqid: cfg.AQ, demand: demand, rate: rate})
	}
	if l.running || c.delivered != nil {
		c.layout()
	}
	l.total += n
	return Entity{lane: l, c: int32(ci), i: int32(first)}
}

// validRate reports whether r may be stored as a rate or a demand cap.
func validRate(r units.BitRate) bool { return r >= 0 && !math.IsInf(float64(r), 1) }

// Start arms the first epoch at now+epoch. Idempotent while running. On a
// restart after Stop, the per-pipe tx counters are re-baselined: packet
// bytes sent while the lane was stopped are not this lane's epoch traffic.
func (l *Lane) Start(now sim.Time) {
	if l.running {
		return
	}
	l.running = true
	for ci := range l.cohorts {
		l.cohorts[ci].layout()
	}
	l.lastFire = now
	for i := range l.pipes {
		l.pipes[i].lastTx = l.pipes[i].pipe.TxBytes
	}
	l.timer.Arm(now + l.epoch)
}

// SetDeadline stops the lane from re-arming past t; zero removes the
// bound. Bounding the lane matters in experiments that run the engine to
// a far horizon and rely on event exhaustion to finish early.
func (l *Lane) SetDeadline(t sim.Time) { l.deadline = t }

// Stop disarms the lane and releases its pipes back to the packet lane. A
// stopped lane may be Started again.
func (l *Lane) Stop() {
	l.running = false
	l.timer.Disarm()
	l.release()
}

// release hands every pipe back to the packet lane at its full rate.
func (l *Lane) release() {
	for i := range l.pipes {
		l.pipes[i].pipe.SetFluidRate(0)
	}
}

// fire integrates one epoch: observe the packet lane's per-pipe usage,
// clip fluid demand to the residual, step every cohort through the AQ
// table, and push the accepted fluid rate back onto the pipes. Cohorts
// iterate in creation order and entities in index order — exactly the
// global registration order — so a run is deterministic for a given
// build-up sequence, and byte-identical to stepping one object per entity.
func (l *Lane) fire() {
	now := l.eng.Now()
	dt := now - l.lastFire
	if dt <= 0 {
		l.rearm(now)
		return
	}
	l.lastFire = now
	fdt := float64(dt)

	// Per-pipe residual: capacity minus what the packet lane actually
	// sent during the epoch, floored so fluid cannot starve packets.
	for i := range l.pipes {
		pa := &l.pipes[i]
		cap := pa.pipe.Rate().BytesPerNano()
		tx := pa.pipe.TxBytes
		pktRate := float64(tx-pa.lastTx) / fdt
		pa.lastTx = tx
		res := cap - pktRate
		if floor := cap * minResidualFrac; res < floor {
			res = floor
		}
		pa.demand = 0
		pa.accepted = 0
		pa.clip = res // reuse: holds residual until demand is known
	}
	// Accumulate demand, then convert residuals into clip fractions. Each
	// cohort adds its wants run by run, still one entity at a time in
	// registration order (n·w is not n additions of w), with the pipe's sum
	// in a register. An unpiped cohort demands of no pipe and is passed
	// over.
	for ci := range l.cohorts {
		c := &l.cohorts[ci]
		if c.pipe < 0 {
			continue
		}
		pd := &l.pipes[c.pipe].demand
		sum, lo := *pd, int32(0)
		for _, r := range c.runs {
			if c.rate == nil {
				for w := r.want(); lo < r.end; lo++ {
					sum += w
				}
			} else {
				for _, w := range c.rate[lo:r.end] {
					sum += capped(w, r.demand)
				}
				lo = r.end
			}
		}
		*pd = sum
	}
	for i := range l.pipes {
		pa := &l.pipes[i]
		res := pa.clip
		if pa.demand > res {
			pa.clip = res / pa.demand
		} else {
			pa.clip = 1
		}
	}
	// Per-cohort AQ step and model update.
	for ci := range l.cohorts {
		c := &l.cohorts[ci]
		clip := 1.0
		var pa *pipeAccount
		if c.pipe >= 0 {
			pa = &l.pipes[c.pipe]
			clip = pa.clip
		}
		if c.par.Model == Fixed {
			l.stepFixed(c, now, dt, fdt, clip, pa)
		} else {
			l.stepCohort(c, now, dt, fdt, clip, pa)
		}
	}
	l.entityEpochs += uint64(l.total)
	l.epochs++
	l.table.CountFluid(l.lookups, l.misses)
	l.lookups, l.misses = 0, 0
	// Couple back: the packet lane serializes at the residual of the
	// accepted fluid rate until the next epoch.
	for i := range l.pipes {
		pa := &l.pipes[i]
		pa.pipe.SetFluidRate(units.BitRate(pa.accepted * 8e9))
	}
	l.rearm(now)
}

// runCap is the longest run of entity epochs stepCohort and stepFixed
// integrate as one AQ transaction: the size of their stack scratch. A
// constant, not a knob — longer same-tag runs are chunked and carry their
// state through the AQ registers, so the cap moves no result, only how
// often the registers are written back.
const runCap = 64

// stepCohort advances a reactive cohort by one epoch, runCap entities at a
// time: walk the run table, derive each entity's want and offered mass from
// its rate, integrate every run through its AQ in one OnFluidRun
// transaction (untagged and unmatched runs pass with everything accepted),
// update each entity's own slots (account), then apply the cohort's model
// reaction. A Fixed cohort is stepped by stepFixed instead. Each run
// segment resolves its AQ with one Table.Lookup and counts its entities as
// lookups, and as misses when nothing is deployed under its ID; an
// untagged run counts nothing. Per entity the operands and their order are
// those of Table.ProcessFluid followed by the model update, and every
// accumulator — AQ registers, lane totals, pipe account — still sees the
// entities in registration order, so the result is bit-identical to
// stepping them one call at a time.
//
// The lane's delivered and dropped totals and the pipe's accepted rate are
// one core.FluidTotals held for the whole cohort: OnFluidRun folds each
// entity of a matched run into them in the loop that carries the gap, whose
// chain of dependent adds their chains overlap, and a pass-through run is
// folded by passThrough, in the same entity order. An unpiped cohort's
// accepted-rate sum is computed all the same and dropped.
func (l *Lane) stepCohort(c *cohort, now, dt sim.Time, fdt, clip float64, pa *pipeAccount) {
	var want, demand, bytes, acc, drp, markBuf [runCap]float64
	var delayBuf [runCap]sim.Time
	// Only the model that reacts to a signal pays for computing it.
	needMark, needDelay := c.par.Model == ECN, c.par.Model == Delay
	sums := l.sums(pa)
	ri := 0 // the run holding the next entity to step
	for lo, n := 0, c.size(); lo < n; lo += runCap {
		hi := lo + runCap
		if hi > n {
			hi = n
		}
		k := hi - lo
		for s := 0; s < k; {
			run := &c.runs[ri]
			e := k
			if end := int(run.end); end <= hi {
				e = end - lo
				ri++
			}
			for j, r := range c.rate[lo+s : lo+e] {
				w := capped(r, run.demand)
				want[s+j], demand[s+j], bytes[s+j] = w, run.demand, offered(w, clip, fdt)
			}
			var mark []float64
			var delay []sim.Time
			if needMark {
				mark = markBuf[s:e]
			}
			if needDelay {
				delay = delayBuf[s:e]
			}
			if aq := l.lookup(run.aqid, e-s); aq != nil {
				aq.OnFluidRun(now, dt, bytes[s:e], acc[s:e], drp[s:e], mark, delay, &sums)
			} else {
				for _, b := range bytes[s:e] {
					passThrough(&sums, b, 1, fdt)
				}
				copy(acc[s:e], bytes[s:e])
				clear(drp[s:e])
				clear(mark)
				clear(delay)
			}
			s = e
		}
		account(want[:k], acc[:k], drp[:k], c.delivered[lo:hi], c.dropped[lo:hi], fdt)
		c.react(lo, acc[:k], drp[:k], markBuf[:k], demand[:k], delayBuf[:k], clip, fdt)
	}
	l.store(sums, pa)
}

// account adds one chunk's outcomes, entity by entity, to the entities' own
// delivered and dropped slots. The lane and pipe sums are not taken here:
// stepCohort's run loop already folded them.
func account(want, acc, drp, delivered, dropped []float64, fdt float64) {
	acc, drp = acc[:len(want)], drp[:len(want)]
	delivered, dropped = delivered[:len(want)], dropped[:len(want)]
	for j, w := range want {
		a := acc[j]
		delivered[j] += a
		dropped[j] += shed(w, a, drp[j], fdt)
	}
}

// stepFixed advances a Fixed cohort by one epoch, run by run. Every entity
// of a run wants the run's rate, so the offer is computed once per run. A
// matched run is integrated through its AQ runCap entities at a time, as
// stepCohort does, and each entity's outcome is folded into the run's
// slots in entity order, in registers across the run's chunks. An
// unmatched run passes every entity whole; an untagged one does too, and
// since its entities hold the same numbers its slots take one update, each
// entity's own (see cohort.outcomeAt). The lane and pipe sums still take
// every entity one at a time in registration order, so every accumulator
// sees the per-entity operand sequence.
func (l *Lane) stepFixed(c *cohort, now, dt sim.Time, fdt, clip float64, pa *pipeAccount) {
	var bytes, acc, drp [runCap]float64
	sums := l.sums(pa)
	lo := int32(0)
	for ri, r := range c.runs {
		n := int(r.end - lo)
		lo = r.end
		w := r.want()
		b := offered(w, clip, fdt)
		delivered, dropped := c.delivered[ri], c.dropped[ri]
		if aq := l.lookup(r.aqid, n); aq != nil {
			chunk := bytes[:min(n, runCap)]
			for j := range chunk {
				chunk[j] = b
			}
			for k := n; k > 0; k -= runCap {
				m := min(k, runCap)
				aq.OnFluidRun(now, dt, bytes[:m], acc[:m], drp[:m], nil, nil, &sums)
				for j, a := range acc[:m] {
					delivered += a
					dropped += shed(w, a, drp[j], fdt)
				}
			}
		} else {
			passThrough(&sums, b, n, fdt)
			if r.aqid == packet.NoAQ {
				n = 1
			}
			for d := shed(w, b, 0, fdt); n > 0; n-- {
				delivered += b
				dropped += d
			}
		}
		c.delivered[ri], c.dropped[ri] = delivered, dropped
	}
	l.store(sums, pa)
}

// sums returns the running lane totals and pipe account a cohort's step
// folds its entities into.
func (l *Lane) sums(pa *pipeAccount) core.FluidTotals {
	sums := core.FluidTotals{Accepted: l.delivered, Dropped: l.dropped}
	if pa != nil {
		sums.AcceptedRate = pa.accepted
	}
	return sums
}

// store writes a cohort's running sums back to the lane and the pipe.
func (l *Lane) store(sums core.FluidTotals, pa *pipeAccount) {
	l.delivered, l.dropped = sums.Accepted, sums.Dropped
	if pa != nil {
		pa.accepted = sums.AcceptedRate
	}
}

// lookup resolves a run segment of n entities tagged id, counting them as
// lookups and, when nothing is deployed under id, as misses. An untagged
// segment resolves to nil and counts nothing.
func (l *Lane) lookup(id packet.AQID, n int) *core.AQ {
	if id == packet.NoAQ {
		return nil
	}
	aq := l.table.Lookup(id)
	l.lookups += uint64(n)
	if aq == nil {
		l.misses += uint64(n)
	}
	return aq
}

// passThrough folds n entities, each offered b bytes that no AQ touches,
// into the running sums one entity at a time: all accepted, at b/fdt each.
// Adding their 0 drops would move no sum, so the dropped total is left as
// it is.
func passThrough(sums *core.FluidTotals, b float64, n int, fdt float64) {
	accepted, rate, r := sums.Accepted, sums.AcceptedRate, b/fdt
	for ; n > 0; n-- {
		accepted += b
		rate += r
	}
	sums.Accepted, sums.AcceptedRate = accepted, rate
}

// offered returns the bytes an entity wanting w bytes/ns is offered in an
// epoch of fdt ns under the pipe clip, rounded to a float64 before any sum
// takes it, never fused into one. stepCohort and stepFixed both take it
// from here: bit identity needs the one rounding.
func offered(w, clip, fdt float64) float64 { return float64(w * clip * fdt) }

// shed returns what an epoch adds to an entity's dropped bytes: the d its AQ
// dropped plus what the link clipped of the w·fdt it wanted beyond the a
// accepted.
func shed(w, a, d, fdt float64) float64 {
	clipped := w*fdt - (a + d)
	if clipped < 0 {
		clipped = 0
	}
	return d + clipped
}

// rearm schedules the next epoch unless the deadline passed.
func (l *Lane) rearm(now sim.Time) {
	if !l.running {
		return
	}
	next := now + l.epoch
	if l.deadline > 0 && next > l.deadline {
		l.running = false
		l.release()
		return
	}
	l.timer.Arm(next)
}

// LaneStats summarises a lane for telemetry and benchmarks. Every entity
// is stepped every epoch, so SkippedEntityEpochs always reads 0; it stays
// in the record for the readers that fold it.
type LaneStats struct {
	Entities            int     `json:"entities"`
	Epochs              uint64  `json:"epochs"`
	EntityEpochs        uint64  `json:"entity_epochs"`
	SkippedEntityEpochs uint64  `json:"skipped_entity_epochs,omitempty"`
	DeliveredBytes      float64 `json:"delivered_bytes"`
	DroppedBytes        float64 `json:"dropped_bytes"`
	EpochNS             int64   `json:"epoch_ns"`
}

// Stats returns a snapshot of the lane's counters. Like the other
// simulation stats it is a pure function of simulated execution, safe to
// fold into fingerprints.
func (l *Lane) Stats() LaneStats {
	return LaneStats{
		Entities:       l.total,
		Epochs:         l.epochs,
		EntityEpochs:   l.entityEpochs,
		DeliveredBytes: l.delivered,
		DroppedBytes:   l.dropped,
		EpochNS:        int64(l.epoch),
	}
}

// Entities returns handles for the lane's entities in registration order.
// The slice is built on demand — the lane itself never stores per-entity
// objects.
func (l *Lane) Entities() []Entity {
	out := make([]Entity, 0, l.total)
	for ci := range l.cohorts {
		for i, n := 0, l.cohorts[ci].size(); i < n; i++ {
			out = append(out, Entity{lane: l, c: int32(ci), i: int32(i)})
		}
	}
	return out
}
