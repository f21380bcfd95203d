package fluid

import (
	"fmt"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
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

// LaneOption configures a Lane at construction. None is defined at
// present; the type keeps NewLane's signature stable for its callers.
type LaneOption func(*Lane)

// Lane advances a set of fluid entities at a fixed epoch on its engine's
// timer wheel. Everything a Lane touches — its table, its pipes, its
// entities — lives on one engine: epochs are ordinary domain-local timer
// events, so in a partitioned run they never widen a sync window (timers
// only shrink a domain's earliest-arrival bound, which is always honest),
// and the cluster's fingerprint gates bind exactly as before.
//
// Entity state is held in structure-of-arrays cohorts (see cohort.go);
// the lane steps cohorts directly, integrating each maximal same-tag run
// of entities as one AQ.OnFluidRun transaction resolved once through a
// core.StreamCursor, and skips quiescent cohorts outright. The steady
// state of fire allocates nothing.
type Lane struct {
	eng   *sim.Engine
	table *core.Table
	epoch sim.Time
	timer *sim.Timer

	cohorts []cohort
	pipes   []pipeAccount
	total   int // entity count across cohorts

	cursor core.StreamCursor

	// now/lastFire bracket the epoch being integrated while fire runs.
	now      sim.Time
	lastFire sim.Time
	deadline sim.Time // no epochs fire after this (0 = unbounded)
	running  bool

	epochs              uint64
	entityEpochs        uint64
	skippedEntityEpochs uint64
	delivered           float64
	dropped             float64
}

// NewLane builds a fluid lane stepping the given table's AQs on eng every
// epoch (0 selects DefaultEpoch).
func NewLane(eng *sim.Engine, table *core.Table, epoch sim.Time, opts ...LaneOption) *Lane {
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	l := &Lane{eng: eng, table: table, epoch: epoch}
	for _, o := range opts {
		o(l)
	}
	l.timer = eng.NewTimer(l.fire)
	return l
}

// Epoch returns the lane's epoch width.
func (l *Lane) Epoch() sim.Time { return l.epoch }

// AddPipe registers a link for residual-rate accounting and returns its
// index for EntityConfig.Pipe. The pipe must belong to the lane's engine:
// fluid epochs are domain-local by construction, and accounting a remote
// pipe would race its domain.
func (l *Lane) AddPipe(p *topo.Pipe) int {
	if p.Engine() != l.eng {
		panic("fluid: pipe belongs to another engine; a lane is domain-local")
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

// AddN registers n identical entities from cfg — one cohort extension, the
// bulk path for drivers attaching whole populations — and returns the
// handle of the first. Handles for the rest follow in registration order
// via Entities().
func (l *Lane) AddN(cfg EntityConfig, n int) Entity {
	if n <= 0 {
		panic("fluid: AddN needs n >= 1")
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
	ci := len(l.cohorts) - 1
	if ci < 0 || !l.cohorts[ci].matches(pipe, par) {
		l.cohorts = append(l.cohorts, cohort{
			par:       par,
			pipe:      pipe,
			aiSlope:   par.ai(),
			floorRate: par.floor(),
		})
		ci++
	}
	c := &l.cohorts[ci]
	// A population change invalidates any primed quiescence aggregates.
	c.materialize()
	c.primed = false
	if cfg.Meter != nil && c.meters == nil {
		// First metered entity: backfill nil meters for the earlier ones.
		c.meters = make([]*stats.Meter, len(c.aqid))
	}
	first := int32(len(c.aqid))
	rate := cfg.Rate.BytesPerNano()
	if par.Model != Fixed && rate < c.floorRate {
		rate = c.floorRate
	}
	demand := cfg.Demand.BytesPerNano()
	for k := 0; k < n; k++ {
		c.aqid = append(c.aqid, cfg.AQ)
		c.rate = append(c.rate, rate)
		c.want = append(c.want, 0)
		c.demand = append(c.demand, demand)
		c.delivered = append(c.delivered, 0)
		c.dropped = append(c.dropped, 0)
		if par.Model == ECN {
			c.alpha = append(c.alpha, 0)
		}
		if c.meters != nil {
			c.meters = append(c.meters, cfg.Meter)
		}
	}
	if cfg.Meter != nil {
		c.hasMeter = true
	}
	l.total += n
	return Entity{lane: l, c: int32(ci), i: first}
}

// Start arms the first epoch at now+epoch. Idempotent while running. On a
// restart after Stop, the per-pipe tx counters are re-baselined: packet
// bytes sent while the lane was stopped are not this lane's epoch traffic.
func (l *Lane) Start(now sim.Time) {
	if l.running {
		return
	}
	l.running = true
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

// Stop disarms the lane, settles any quiescent streaks into the per-entity
// state, and releases its pipes back to the packet lane. A stopped lane
// may be Started again.
func (l *Lane) Stop() {
	l.running = false
	l.timer.Disarm()
	l.settle()
	for i := range l.pipes {
		l.pipes[i].pipe.SetFluidRate(0)
	}
}

// settle materializes every cohort's pending streak.
func (l *Lane) settle() {
	for ci := range l.cohorts {
		l.cohorts[ci].materialize()
	}
}

// fire integrates one epoch: observe the packet lane's per-pipe usage,
// clip fluid demand to the residual, step every cohort through the AQ
// table, and push the accepted fluid rate back onto the pipes. Cohorts
// iterate in creation order and entities in index order — exactly the
// global registration order — so a run is deterministic for a given
// build-up sequence regardless of domain count, and byte-identical to
// stepping one object per entity.
func (l *Lane) fire() {
	now := l.eng.Now()
	dt := now - l.lastFire
	if dt <= 0 {
		l.rearm(now)
		return
	}
	l.now = now
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
	gen := l.table.Generation()
	// Accumulate demand, then convert residuals into clip fractions. A
	// primed cohort's wants are unchanged by construction, so its
	// precomputed sum replaces the per-entity pass.
	for ci := range l.cohorts {
		c := &l.cohorts[ci]
		if c.primed && c.aqGen == gen {
			if c.pipe >= 0 {
				l.pipes[c.pipe].demand += c.wantSum
			}
			continue
		}
		if c.pipe >= 0 {
			pd := &l.pipes[c.pipe].demand
			for i, r := range c.rate {
				if d := c.demand[i]; d > 0 && r > d {
					r = d
				}
				c.want[i] = r
				*pd += r
			}
		} else {
			for i, r := range c.rate {
				if d := c.demand[i]; d > 0 && r > d {
					r = d
				}
				c.want[i] = r
			}
		}
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
	l.cursor.Bind(l.table)
	for ci := range l.cohorts {
		c := &l.cohorts[ci]
		clip := 1.0
		var pa *pipeAccount
		if c.pipe >= 0 {
			pa = &l.pipes[c.pipe]
			clip = pa.clip
		}
		if c.primed && c.aqGen == gen && clip == c.lastClip && fdt == c.lastFdt {
			// Quiescent: a Fixed all-miss meterless cohort under the same
			// clip and epoch width reproduces last epoch's numbers
			// exactly — fold the aggregates, extend the streak, done.
			c.streak++
			l.delivered += c.acceptSum
			if pa != nil {
				pa.accepted += c.acceptSum / fdt
			}
			l.skippedEntityEpochs += uint64(len(c.rate))
			continue
		}
		c.materialize()
		c.primed = false
		l.stepCohort(c, gen, now, dt, fdt, clip, pa)
	}
	l.entityEpochs += uint64(l.total)
	l.epochs++
	l.cursor.Flush()
	// Couple back: the packet lane serializes at the residual of the
	// accepted fluid rate until the next epoch.
	for i := range l.pipes {
		pa := &l.pipes[i]
		pa.pipe.SetFluidRate(units.BitRate(pa.accepted * 8e9))
	}
	l.rearm(now)
}

// runCap is the longest run of entity epochs stepCohort integrates as one
// AQ transaction: the size of its stack scratch. A constant, not a knob —
// longer same-tag runs are chunked and carry their state through the AQ
// registers, so the cap moves no result, only how often the registers are
// written back.
const runCap = 64

// stepCohort advances one cohort by one epoch, runCap entities at a time:
// compute each entity's offered mass, integrate every maximal same-tag run
// through its AQ in one OnFluidRun transaction (untagged and unmatched runs
// pass with everything accepted), account the outcome per entity, then
// apply the cohort's model reaction. Per entity the operands and their
// order are those of Table.ProcessFluid followed by the model update, and
// every accumulator — AQ registers, lane totals, pipe account, meters —
// still sees the entities in registration order, so the result is
// bit-identical to stepping them one call at a time.
func (l *Lane) stepCohort(c *cohort, gen uint64, now, dt sim.Time, fdt, clip float64, pa *pipeAccount) {
	var bytes, acc, drp, markBuf [runCap]float64
	var delayBuf [runCap]sim.Time
	// Only the model that reacts to a signal pays for computing it.
	needMark, needDelay := c.par.Model == ECN, c.par.Model == Delay
	aqFree := true
	for lo, n := 0, len(c.rate); lo < n; lo += runCap {
		hi := lo + runCap
		if hi > n {
			hi = n
		}
		k := hi - lo
		want, ids := c.want[lo:hi], c.aqid[lo:hi]
		for j, w := range want {
			bytes[j] = w * clip * fdt
		}
		for s := 0; s < k; {
			id := ids[s]
			e := s + 1
			for e < k && ids[e] == id {
				e++
			}
			var mark []float64
			var delay []sim.Time
			if needMark {
				mark = markBuf[s:e]
			}
			if needDelay {
				delay = delayBuf[s:e]
			}
			var aq *core.AQ
			if id != packet.NoAQ {
				aq = l.cursor.ResolveRun(id, e-s)
			}
			if aq != nil {
				aqFree = false
				aq.OnFluidRun(now, dt, bytes[s:e], acc[s:e], drp[s:e], mark, delay)
			} else {
				copy(acc[s:e], bytes[s:e])
				clear(drp[s:e])
				clear(mark)
				clear(delay)
			}
			s = e
		}
		delivered, dropped := c.delivered[lo:hi], c.dropped[lo:hi]
		laneDelivered, laneDropped := l.delivered, l.dropped
		for j, w := range want {
			a, d := acc[j], drp[j]
			delivered[j] += a
			clipped := w*fdt - (a + d)
			if clipped < 0 {
				clipped = 0
			}
			dropped[j] += d + clipped
			laneDelivered += a
			laneDropped += d
			if pa != nil {
				pa.accepted += a / fdt
			}
		}
		l.delivered, l.dropped = laneDelivered, laneDropped
		if c.meters != nil {
			for j, m := range c.meters[lo:hi] {
				if m != nil {
					m.AddFloat(now, acc[j])
				}
			}
		}
		c.react(lo, acc[:k], drp[:k], markBuf[:k], delayBuf[:k], clip, fdt)
	}
	if aqFree && c.par.Model == Fixed && !c.hasMeter {
		c.prime(gen, clip, fdt)
	}
}

// rearm schedules the next epoch unless the deadline passed.
func (l *Lane) rearm(now sim.Time) {
	if !l.running {
		return
	}
	next := now + l.epoch
	if l.deadline > 0 && next > l.deadline {
		l.running = false
		l.settle()
		// Release the pipes back to the packet lane.
		for i := range l.pipes {
			l.pipes[i].pipe.SetFluidRate(0)
		}
		return
	}
	l.timer.Arm(next)
}

// LaneStats summarises a lane for telemetry and benchmarks. The skipped
// counter is a subset of EntityEpochs: every entity is accounted every
// epoch, whether it was stepped or skipped as quiescent.
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
		Entities:            l.total,
		Epochs:              l.epochs,
		EntityEpochs:        l.entityEpochs,
		SkippedEntityEpochs: l.skippedEntityEpochs,
		DeliveredBytes:      l.delivered,
		DroppedBytes:        l.dropped,
		EpochNS:             int64(l.epoch),
	}
}

// Entities returns handles for the lane's entities in registration order.
// The slice is built on demand — the lane itself never stores per-entity
// objects.
func (l *Lane) Entities() []Entity {
	out := make([]Entity, 0, l.total)
	for ci := range l.cohorts {
		for i := range l.cohorts[ci].rate {
			out = append(out, Entity{lane: l, c: int32(ci), i: int32(i)})
		}
	}
	return out
}
