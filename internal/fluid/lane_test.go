package fluid

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/units"
)

// TestFireSteadyStateAllocFree pins the structure-of-arrays payoff: once a
// lane is warm, an epoch allocates nothing — no per-entity objects, no
// timer garbage — across all four model loops, tagged and
// untagged entities, a Fixed cohort laid out per run with untagged and
// tagged runs, and a live pipe account.
func TestFireSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	table := core.NewTable()
	table.Deploy(core.Config{ID: 1, Rate: 2 * units.Gbps})
	table.Deploy(core.Config{ID: 2, Rate: units.Gbps})
	pipe := topo.NewPipe(eng, 10*units.Gbps, sim.Microsecond, 0, 0, sink{})
	lane := NewLane(eng, table, 0)
	pi := lane.AddPipe(pipe)
	lane.AddN(EntityConfig{AQ: 1, CC: "cubic", Rate: units.Gbps, Pipe: pi}, 8)
	lane.AddN(EntityConfig{AQ: 2, CC: "dctcp", Rate: units.Gbps, Pipe: pi}, 8)
	lane.AddN(EntityConfig{CC: "swift", Rate: units.Gbps, Pipe: pi}, 8)
	lane.AddN(EntityConfig{CC: "udp", Rate: units.Gbps, Pipe: pi}, 8)
	lane.AddN(EntityConfig{CC: "udp", Rate: units.Gbps / 2, Pipe: pi}, 8)
	lane.AddN(EntityConfig{AQ: 1, CC: "udp", Rate: units.Gbps / 2, Pipe: pi}, 8)
	lane.Start(0)
	if c := &lane.cohorts[3]; c.par.Model != Fixed || len(c.runs) != 3 || len(c.delivered) != 3 {
		t.Fatalf("the Fixed cohort: %v, %d runs, %d delivered slots; want Fixed, 3 and 3", c.par.Model, len(c.runs), len(c.delivered))
	}

	// Warm up: first epochs grow the engine's heaps and touch every code
	// path.
	next := 5 * lane.Epoch()
	eng.RunUntil(next)

	allocs := testing.AllocsPerRun(100, func() {
		next += lane.Epoch()
		eng.RunUntil(next)
	})
	if allocs != 0 {
		t.Fatalf("steady-state epoch allocated %.1f times, want 0", allocs)
	}
	if st := lane.Stats(); st.EntityEpochs == 0 {
		t.Fatalf("no entity-epochs advanced; the alloc measurement measured nothing")
	}
}

// refEntity is one entity of the per-entity reference lane: an object with
// its own tag, model and rate, as the lane stored them before cohorts.
type refEntity struct {
	id     packet.AQID
	par    Params
	pipe   int
	rate   float64
	want   float64
	demand float64
	alpha  float64
	run    int // index into refLane.runs for a Fixed entity, -1 otherwise

	delivered, dropped float64
}

// refRun is a run of Fixed entities as the lane's contract defines it: the
// entities of consecutive adds of one class (pipe, params, tag, demand cap,
// rate), sealed once its outcome has storage — at a Start, or at once when
// added to a running lane or beside a sealed run of the same cohort — so a
// later add opens a run of its own. It keeps its entities' outcomes
// summed, folded in registration order every epoch.
type refRun struct {
	n      int
	sealed bool

	delivered, dropped float64
}

// refLane steps entities one table call at a time: Table.ProcessFluid per
// entity in registration order, then that entity's model update. It has no
// cohorts, no cursor and no scratch — the reference the run-length lane
// must match bit for bit. Its runs are only what an entity of a tagged
// Fixed run of n reads, an even split of the run's sums (outcome); every
// other entity reads its own numbers.
type refLane struct {
	table    *core.Table
	pipeCap  []float64 // bytes per ns
	accepted []float64 // per pipe, bytes per ns, last epoch
	ents     []refEntity
	runs     []refRun
	running  bool

	delivered, dropped float64
}

func (r *refLane) add(cfg EntityConfig, n int) {
	par := *cfg.Params
	e := refEntity{
		id: cfg.AQ, par: par, pipe: cfg.Pipe,
		rate: cfg.Rate.BytesPerNano(), demand: cfg.Demand.BytesPerNano(), run: -1,
	}
	if par.Model != Fixed && e.rate < par.floor() {
		e.rate = par.floor()
	}
	if par.Model == Fixed {
		var prev *refEntity
		if len(r.ents) > 0 {
			prev = &r.ents[len(r.ents)-1]
		}
		cohort := prev != nil && prev.par == par && prev.pipe == e.pipe
		if cohort && prev.id == e.id && prev.demand == e.demand && prev.rate == e.rate && !r.runs[prev.run].sealed {
			e.run = prev.run
		} else {
			e.run = len(r.runs)
			r.runs = append(r.runs, refRun{sealed: r.running || cohort && r.runs[prev.run].sealed})
		}
		r.runs[e.run].n += n
	}
	for ; n > 0; n-- {
		r.ents = append(r.ents, e)
	}
}

// start and stop follow Lane.Start and Stop: a start seals every run.
func (r *refLane) start() {
	r.running = true
	for i := range r.runs {
		r.runs[i].sealed = true
	}
}

func (r *refLane) stop() { r.running = false }

// outcome returns what entity i reads as delivered and dropped: its run's
// sums over n for an entity of a tagged Fixed run, its own otherwise.
func (r *refLane) outcome(i int) (delivered, dropped float64) {
	e := &r.ents[i]
	if e.run < 0 || e.id == packet.NoAQ {
		return e.delivered, e.dropped
	}
	run := &r.runs[e.run]
	return run.delivered / float64(run.n), run.dropped / float64(run.n)
}

func (r *refLane) step(now, dt sim.Time) {
	fdt := float64(dt)
	demand := make([]float64, len(r.pipeCap))
	for i := range r.ents {
		e := &r.ents[i]
		e.want = e.rate
		if e.demand > 0 && e.want > e.demand {
			e.want = e.demand
		}
		if e.pipe >= 0 {
			demand[e.pipe] += e.want
		}
	}
	clips := make([]float64, len(r.pipeCap))
	for p, cap := range r.pipeCap {
		clips[p] = 1
		if demand[p] > cap {
			clips[p] = cap / demand[p]
		}
		r.accepted[p] = 0
	}
	for i := range r.ents {
		e := &r.ents[i]
		clip := 1.0
		if e.pipe >= 0 {
			clip = clips[e.pipe]
		}
		fb := r.table.ProcessFluid(now, e.id, e.want*clip*fdt, dt)
		e.delivered += fb.Accepted
		clipped := e.want*fdt - (fb.Accepted + fb.Dropped)
		if clipped < 0 {
			clipped = 0
		}
		e.dropped += fb.Dropped + clipped
		r.delivered += fb.Accepted
		r.dropped += fb.Dropped
		if e.pipe >= 0 {
			r.accepted[e.pipe] += fb.Accepted / fdt
		}
		if e.par.Model == Fixed {
			run := &r.runs[e.run]
			run.delivered += fb.Accepted
			run.dropped += fb.Dropped + clipped
			continue
		}
		loss := fb.LossFrac()
		if clip < 1 {
			loss = 1 - clip*(1-loss)
		}
		ai := e.par.ai() * fdt
		switch e.par.Model {
		case Loss:
			if loss > 1e-9 {
				e.rate *= 1 - e.par.Beta
			} else {
				e.rate += ai
			}
		case ECN:
			g := e.par.Gain
			e.alpha = (1-g)*e.alpha + g*fb.MarkFrac
			if fb.MarkFrac > 1e-9 || loss > 1e-9 {
				cut := e.alpha / 2
				if loss > 1e-9 && cut < e.par.Beta {
					cut = e.par.Beta
				}
				e.rate *= 1 - cut
			} else {
				e.rate += ai
			}
		case Delay:
			d := float64(fb.Delay)
			if target := float64(e.par.Target); d > target && d > 0 {
				f := 1 - e.par.Beta*(d-target)/d
				if f < 0.3 {
					f = 0.3
				}
				e.rate *= f
			} else if loss > 1e-9 {
				e.rate *= 1 - e.par.Beta
			} else {
				e.rate += ai
			}
		}
		if e.rate < e.par.floor() {
			e.rate = e.par.floor()
		}
		if e.demand > 0 && e.rate > e.demand {
			e.rate = e.demand
		}
	}
}

// TestRunLengthLaneMatchesPerEntity is the lane-level differential: the
// run-length lane against refLane on the same population, bitwise. The
// population mixes what the run walk has to get right — tags that change
// mid-cohort, untagged entities, tags nothing is deployed under, same-tag
// runs longer than the scratch cap and runs that straddle a chunk
// boundary, all four models, all three AQ feedback types, a clipping
// pipe — and the script deploys and removes AQs between epochs (changing
// what an AQ ID resolves to) and interleaves packet Updates that leave
// last_time mid-epoch. A Fixed entity of a tagged run reads the even split
// of its run's sums, which refLane folds entity by entity.
func TestRunLengthLaneMatchesPerEntity(t *testing.T) {
	const epoch = 100 * sim.Microsecond
	deploy := []core.Config{
		{ID: 1, Rate: 2 * units.Gbps, Limit: 40_000},
		{ID: 2, Rate: units.Gbps, CC: core.ECNType, ECNThreshold: 8_000, Limit: 30_000},
		{ID: 3, Rate: 500 * units.Mbps, CC: core.DelayType, Limit: 20_000},
		{ID: 5, Rate: 100 * units.Mbps, Limit: 1},
	}
	eng := sim.NewEngine()
	tables := [2]*core.Table{}
	for i := range tables {
		tables[i] = core.NewTable()
		for _, cfg := range deploy {
			tables[i].Deploy(cfg)
		}
	}
	pipe := topo.NewPipe(eng, 10*units.Gbps, sim.Microsecond, 0, 0, sink{})
	lane := NewLane(eng, tables[0], epoch)
	pi := lane.AddPipe(pipe)
	ref := &refLane{table: tables[1], pipeCap: []float64{pipe.Rate().BytesPerNano()}, accepted: make([]float64, 1)}

	add := func(cfg EntityConfig, n int) {
		lane.AddN(cfg, n)
		ref.add(cfg, n)
	}
	for _, cc := range []string{"udp", "cubic", "dctcp", "swift"} {
		// One cohort per model (same pipe, same params), walked as: a
		// short run, a run longer than the cap, a miss, untagged
		// entities, single-entity tag flips, and a run that crosses the
		// next chunk boundary. The floor is lowered so the reactive
		// models have room to move in both directions.
		par := ParamsFor(cc)
		par.MinRate = units.Mbps.BytesPerNano()
		add(EntityConfig{AQ: 1, Params: &par, Rate: 200 * units.Mbps, Pipe: pi}, 3)
		add(EntityConfig{AQ: 2, Params: &par, Rate: 10 * units.Mbps, Pipe: pi}, 2*runCap+5)
		add(EntityConfig{AQ: 9, Params: &par, Rate: 10 * units.Mbps, Pipe: pi}, 4)
		add(EntityConfig{Params: &par, Rate: 10 * units.Mbps, Pipe: pi}, 3)
		for i := 0; i < 6; i++ {
			add(EntityConfig{AQ: packet.AQID(1 + i%3), Params: &par, Rate: 30 * units.Mbps, Demand: 300 * units.Mbps, Pipe: pi}, 1)
		}
		add(EntityConfig{AQ: 3, Params: &par, Rate: 5 * units.Mbps, Pipe: pi}, runCap)
		add(EntityConfig{AQ: 5, Params: &par, Rate: 5 * units.Mbps, Pipe: -1}, 7)
	}

	// Table edits and packet arrivals between epochs, applied to both
	// tables at the same simulated instant.
	both := func(f func(t *core.Table)) { f(tables[0]); f(tables[1]) }
	lane.Start(0)
	ref.start()
	for k := 1; k <= 40; k++ {
		now := sim.Time(k) * epoch
		eng.RunUntil(now + epoch/2) // epoch k fires at now
		ref.step(now, epoch)
		switch k {
		case 3: // a packet lands mid-epoch on AQ 1
			both(func(t *core.Table) { t.Lookup(1).Update(eng.Now(), 9000) })
		case 5: // the missing tag gets an AQ
			both(func(t *core.Table) { t.Deploy(core.Config{ID: 9, Rate: 50 * units.Mbps, Limit: 5_000}) })
		case 8: // the long runs start missing
			both(func(t *core.Table) { t.Remove(2) })
		case 9: // last_time past the end of the next epoch
			both(func(t *core.Table) { t.Lookup(3).Update(eng.Now()+epoch+7, 1500) })
		case 12:
			both(func(t *core.Table) { t.Deploy(deploy[1]) })
		case 25:
			both(func(t *core.Table) { t.Remove(9) })
		}
	}
	lane.Stop()

	bits := math.Float64bits
	ents := lane.Entities()
	if len(ents) != len(ref.ents) {
		t.Fatalf("%d entities, reference %d", len(ents), len(ref.ents))
	}
	for i, e := range ents {
		r := &ref.ents[i]
		c := &lane.cohorts[e.c]
		delivered, dropped := ref.outcome(i)
		if bits(c.rateAt(e.i)) != bits(r.rate) || bits(e.Delivered()) != bits(delivered) || bits(e.Dropped()) != bits(dropped) {
			t.Fatalf("entity %d (tag %d, %v): rate %v delivered %v dropped %v, reference %v %v %v",
				i, r.id, r.par.Model, c.rateAt(e.i), e.Delivered(), e.Dropped(), r.rate, delivered, dropped)
		}
		if r.par.Model == ECN && bits(c.alpha[e.i]) != bits(r.alpha) {
			t.Fatalf("entity %d: alpha %v, reference %v", i, c.alpha[e.i], r.alpha)
		}
	}
	st := lane.Stats()
	if bits(st.DeliveredBytes) != bits(ref.delivered) || bits(st.DroppedBytes) != bits(ref.dropped) {
		t.Fatalf("lane delivered %v dropped %v, reference %v %v", st.DeliveredBytes, st.DroppedBytes, ref.delivered, ref.dropped)
	}
	if got, want := bits(lane.pipes[0].accepted), bits(ref.accepted[0]); got != want {
		t.Fatalf("pipe accepted rate %v, reference %v", lane.pipes[0].accepted, ref.accepted[0])
	}
	if got, want := tables[0].Stats(), tables[1].Stats(); got != want {
		t.Fatalf("table stats %+v, reference %+v", got, want)
	}
	if ts := tables[0].Stats(); ts.FluidMisses == 0 || ts.FluidMisses == ts.FluidEpochs {
		t.Fatalf("table stats %+v: want both hits and misses exercised", ts)
	}
	for _, id := range tables[1].IDs() {
		a, r := tables[0].Lookup(id), tables[1].Lookup(id)
		as, rs := a.Stats(), r.Stats()
		if bits(a.Gap()) != bits(r.Gap()) || a.VirtualDelay() != r.VirtualDelay() ||
			bits(as.FluidBytes) != bits(rs.FluidBytes) || bits(as.FluidDropped) != bits(rs.FluidDropped) || bits(as.FluidMarked) != bits(rs.FluidMarked) {
			t.Fatalf("AQ %d: gap %v stats %+v, reference gap %v stats %+v", id, a.Gap(), as, r.Gap(), rs)
		}
	}
}

// TestLaneRestart: Stop must be a clean boundary — no epochs while
// stopped, and a later Start re-baselines the per-pipe tx counters so
// packet bytes sent in the gap are not billed against the first epoch's
// residual.
func TestLaneRestart(t *testing.T) {
	eng := sim.NewEngine()
	table := core.NewTable()
	pipe := topo.NewPipe(eng, 10*units.Gbps, sim.Microsecond, 0, 0, sink{})
	lane := NewLane(eng, table, 0)
	pi := lane.AddPipe(pipe)
	lane.Add(EntityConfig{CC: "udp", Rate: 4 * units.Gbps, Pipe: pi})
	lane.Start(0)
	eng.RunUntil(5 * sim.Millisecond)
	lane.Stop()
	st1 := lane.Stats()
	if st1.DeliveredBytes <= 0 {
		t.Fatalf("first run delivered nothing")
	}
	if fr := pipe.FluidRate(); fr != 0 {
		t.Fatalf("FluidRate = %v after Stop, want 0", fr)
	}

	// While stopped: time passes, no epochs fire, and the packet lane moves
	// a burst of bytes over the pipe.
	eng.RunUntil(10 * sim.Millisecond)
	if st := lane.Stats(); st.Epochs != st1.Epochs {
		t.Fatalf("epochs advanced while stopped: %d -> %d", st1.Epochs, st.Epochs)
	}
	pipe.TxBytes += 50_000_000 // ~40ms of line rate, sent in the gap

	lane.Start(eng.Now())
	eng.RunUntil(15 * sim.Millisecond)
	lane.Stop()
	st2 := lane.Stats()
	got := st2.DeliveredBytes - st1.DeliveredBytes
	want := 4e9 / 8e9 * 5e6 // 4 Gbps over 5ms, in bytes
	if got < 0.9*want {
		t.Fatalf("post-restart delivered %.0f bytes, want ~%.0f — stale lastTx billed the stopped gap's traffic", got, want)
	}
}

// TestPipeRateChangeMidRun is the stale-capacity regression: the lane must
// re-read the pipe's rate every epoch, so a runtime SetRate (what a wire
// set_rate lands as) reshapes the fluid residual from the next epoch on
// rather than clipping against the capacity captured at AddPipe.
func TestPipeRateChangeMidRun(t *testing.T) {
	eng := sim.NewEngine()
	table := core.NewTable()
	pipe := topo.NewPipe(eng, 10*units.Gbps, sim.Microsecond, 0, 0, sink{})
	lane := NewLane(eng, table, 0)
	pi := lane.AddPipe(pipe)
	lane.Add(EntityConfig{CC: "udp", Rate: 8 * units.Gbps, Pipe: pi})
	lane.Start(0)
	eng.RunUntil(2 * sim.Millisecond)
	if fr := float64(pipe.FluidRate()); math.Abs(fr-8e9) > 1e8 {
		t.Fatalf("pre-change FluidRate = %.2g, want ~8G", fr)
	}
	pipe.SetRate(4 * units.Gbps)
	eng.RunUntil(4 * sim.Millisecond)
	if fr := float64(pipe.FluidRate()); math.Abs(fr-4e9) > 1e8 {
		t.Fatalf("post-change FluidRate = %.2g, want ~4G (clipped to the new link rate)", fr)
	}
	lane.Stop()
}

// TestPerRunCohortIsExact: a Fixed cohort holds one delivered slot per run
// and is stepped run by run, and its numbers are exact, not approximate:
// an untagged entity's Delivered and the lane's total equal the
// closed-form value after ten epochs, after the cohort grows by a run of
// its own while running, and after Stop. Every entity is stepped every
// epoch. A tagged Fixed add, before Start or while running, extends the
// same cohort by a run of its own and leaves the earlier runs and slots as
// they were; a tagged run of one reads its own total.
func TestPerRunCohortIsExact(t *testing.T) {
	eng := sim.NewEngine()
	table := core.NewTable()
	table.Deploy(core.Config{ID: 1, Rate: 100 * units.Gbps, Limit: math.MaxInt32})
	lane := NewLane(eng, table, 0)
	udp := EntityConfig{CC: "udp", Rate: units.Gbps, Pipe: -1}
	tagged := udp
	tagged.AQ = 1
	e0 := lane.Add(udp)
	lane.AddN(udp, 3)
	lane.Start(0)
	ep := lane.Epoch()

	eng.RunUntil(10*ep + ep/2) // 10 epochs fired
	c := &lane.cohorts[0]
	if c.par.Model != Fixed || len(c.runs) != 1 || len(c.delivered) != 1 {
		t.Fatalf("%v with %d runs and %d delivered slots, want Fixed, one run of 4 and its slot", c.par.Model, len(c.runs), len(c.delivered))
	}
	st := lane.Stats()
	if st.EntityEpochs != 40 || st.SkippedEntityEpochs != 0 {
		t.Fatalf("entity-epochs = %d, %d skipped, want 40 (4 entities x 10 epochs), none skipped", st.EntityEpochs, st.SkippedEntityEpochs)
	}
	// 1 Gbps over 10 epochs: 12.5 kB an epoch, exact in binary.
	perEpoch := float64(units.Gbps) / 8e9 * float64(ep)
	if got, want := e0.Delivered(), 10*perEpoch; got != want {
		t.Fatalf("Delivered = %v, want exactly %v", got, want)
	}
	if got := st.DeliveredBytes; got != 40*perEpoch {
		t.Fatalf("lane delivered = %v, want exactly %v", got, 40*perEpoch)
	}

	// Grown while running, the cohort opens a run of its own: the new
	// entity starts from 0 and the old ones keep their totals.
	e4 := lane.Add(udp)
	eng.RunUntil(12*ep + ep/2)
	if len(c.runs) != 2 || len(c.delivered) != 2 {
		t.Fatalf("after growth: %d runs, %d delivered slots, want 2 each", len(c.runs), len(c.delivered))
	}
	if got, want := lane.Stats().DeliveredBytes, 50*perEpoch; got != want {
		t.Fatalf("lane delivered after growth = %v, want exactly %v", got, want)
	}

	// A tagged add while running opens a third run of the same cohort; the
	// first two keep their bounds and slots, untouched.
	runs, delivered, dropped := slices.Clone(c.runs), slices.Clone(c.delivered), slices.Clone(c.dropped)
	e5 := lane.Add(tagged)
	checkTaggedRun(t, lane, 3)
	c = &lane.cohorts[0]
	if !slices.Equal(c.runs[:2], runs) || !slices.Equal(c.delivered[:2], delivered) || !slices.Equal(c.dropped[:2], dropped) {
		t.Fatalf("the tagged add moved the earlier runs: runs %+v delivered %v dropped %v, were %+v %v %v",
			c.runs, c.delivered, c.dropped, runs, delivered, dropped)
	}
	eng.RunUntil(14*ep + ep/2)
	if got, want := lane.Stats().DeliveredBytes, 62*perEpoch; got != want {
		t.Fatalf("lane delivered after the tagged add = %v, want exactly %v", got, want)
	}
	lane.Stop()
	if got, want := e0.Delivered(), 14*perEpoch; got != want {
		t.Fatalf("post-Stop Delivered = %v, want exactly %v", got, want)
	}
	if got, want := e4.Delivered(), 4*perEpoch; got != want || e4.Dropped() != 0 {
		t.Fatalf("post-Stop grown entity Delivered = %v dropped %v, want exactly %v and 0", got, e4.Dropped(), want)
	}
	if got, want := e5.Delivered(), 2*perEpoch; got != want || e5.Dropped() != 0 {
		t.Fatalf("post-Stop tagged entity Delivered = %v dropped %v, want exactly %v and 0", got, e5.Dropped(), want)
	}

	// Before Start, too, the tagged add is a run of its own in the cohort.
	eng = sim.NewEngine()
	lane = NewLane(eng, table, 0)
	lane.AddN(udp, 4)
	lane.Add(tagged)
	lane.Start(0)
	eng.RunUntil(10*ep + ep/2)
	checkTaggedRun(t, lane, 2)
	if c := &lane.cohorts[0]; c.runs[0].end != 4 || c.delivered[0] != 10*perEpoch || c.delivered[1] != 10*perEpoch {
		t.Fatalf("tagged add before Start: runs %+v, delivered %v; want an untagged run of 4 and both slots %v",
			c.runs, c.delivered, 10*perEpoch)
	}
	if got, want := lane.Stats().DeliveredBytes, 50*perEpoch; got != want {
		t.Fatalf("tagged add before Start: lane delivered = %v, want exactly %v", got, want)
	}
	lane.Stop()
}

// checkTaggedRun fails t unless the lane has one cohort, Fixed, with runs
// runs and a slot each, the last holding one entity on AQ 1.
func checkTaggedRun(t *testing.T, lane *Lane, runs int) {
	t.Helper()
	if len(lane.cohorts) != 1 {
		t.Fatalf("%d cohorts, want one Fixed cohort", len(lane.cohorts))
	}
	c := &lane.cohorts[0]
	last := c.runs[len(c.runs)-1]
	if len(c.runs) != runs || len(c.delivered) != runs || last.aqid != 1 || int(last.end) != c.size() || c.size()-int(c.runs[runs-2].end) != 1 {
		t.Fatalf("Fixed cohort: runs %+v, %d delivered slots; want %d runs and slots, the last one entity on AQ 1", c.runs, len(c.delivered), runs)
	}
}

// TestAddNRefusesBadInput: AddN panics — as it does for n < 1 and a pipe
// index AddPipe never returned — on a Rate or Demand that is NaN, infinite
// or negative, and on a population that would outgrow the int32 entity
// index, and in every case before it has touched the lane. A +Inf rate
// stored Inf - Inf = NaN in the lane's and the AQ's counters at the first
// epoch; an index past MaxInt32 wrapped silently.
func TestAddNRefusesBadInput(t *testing.T) {
	lane := NewLane(sim.NewEngine(), core.NewTable(), 0)
	lane.AddN(EntityConfig{CC: "cubic", Rate: units.Gbps, Pipe: -1}, 3)
	ok := EntityConfig{CC: "cubic", Rate: units.Gbps, Pipe: -1}
	with := func(edit func(*EntityConfig)) EntityConfig { cfg := ok; edit(&cfg); return cfg }
	maxInt32 := math.MaxInt32 // a variable: the sum below is not a constant a 32-bit int must hold
	for _, tc := range []struct {
		name string
		cfg  EntityConfig
		n    int
	}{
		{"n=0", ok, 0},
		{"pipe out of range", with(func(c *EntityConfig) { c.Pipe = 0 }), 1},
		{"NaN rate", with(func(c *EntityConfig) { c.Rate = units.BitRate(math.NaN()) }), 1},
		{"+Inf rate", with(func(c *EntityConfig) { c.Rate = units.BitRate(math.Inf(1)) }), 1},
		{"negative rate", with(func(c *EntityConfig) { c.Rate = -units.Mbps }), 1},
		{"NaN demand", with(func(c *EntityConfig) { c.Demand = units.BitRate(math.NaN()) }), 1},
		{"+Inf demand", with(func(c *EntityConfig) { c.Demand = units.BitRate(math.Inf(1)) }), 1},
		{"negative demand", with(func(c *EntityConfig) { c.Demand = -units.Mbps }), 1},
		{"cohort past MaxInt32", ok, maxInt32 - 2},
		{"new cohort past MaxInt32", with(func(c *EntityConfig) { c.CC = "udp" }), maxInt32 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("AddN accepted it")
				}
				if st := lane.Stats(); st.Entities != 3 || len(lane.cohorts) != 1 || len(lane.cohorts[0].runs) != 1 {
					t.Errorf("the refused AddN left %d entities in %d cohorts, want the 3 in 1 it found", st.Entities, len(lane.cohorts))
				}
			}()
			lane.AddN(tc.cfg, tc.n)
		})
	}
}

// buildLane registers entities in groups of 16 sharing a tag, as the scale
// scenarios attach them: a third each in a cubic, a dctcp and a Fixed
// cohort, one AddN call per group.
func buildLane(entities int) *Lane {
	lane := NewLane(sim.NewEngine(), core.NewTable(), 0)
	groups := entities / 16
	for g := 0; g < groups; g++ {
		cc := [3]string{"cubic", "dctcp", "udp"}[3*g/groups]
		lane.AddN(EntityConfig{AQ: packet.AQID(g + 1), CC: cc, Rate: units.Gbps, Pipe: -1}, 16)
	}
	return lane
}

// laneBytes is what a lane's entity storage holds: its cohorts, their run
// tables and their per-entity arrays, each at its capacity.
func laneBytes(l *Lane) uint64 {
	n := uintptr(cap(l.cohorts)) * unsafe.Sizeof(cohort{})
	for _, c := range l.cohorts {
		n += uintptr(cap(c.runs))*unsafe.Sizeof(tagRun{}) +
			uintptr(cap(c.delivered)+cap(c.dropped)+cap(c.rate)+cap(c.alpha))*8
	}
	return uint64(n)
}

// TestLaneBuildLaysOutOnce pins what building a large population costs:
// registering 200 k entities sixteen per AddN, plus an untagged Fixed
// cohort of 16 k in runs of 16 at alternating rates, and starting the lane
// allocates at most twice what the lane then holds — the run tables'
// regrowth is the slack — every per-entity array is exactly its cohort's
// size, and both Fixed cohorts, the tagged one and the untagged one, hold
// delivered and dropped once per run, at exactly their run count. Grown
// per AddN call, the arrays allocated about five times what they kept.
func TestLaneBuildLaysOutOnce(t *testing.T) {
	const entities, fill = 200_000, 16_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	lane := buildLane(entities)
	fillPar := Params{Model: Fixed} // a class of its own beside buildLane's Fixed cohort
	for g := 0; g < fill/16; g++ {
		lane.AddN(EntityConfig{Params: &fillPar, Rate: units.Gbps / units.BitRate(1+g%2), Pipe: -1}, 16)
	}
	lane.Start(0)
	runtime.ReadMemStats(&after)
	allocated, held := after.TotalAlloc-before.TotalAlloc, laneBytes(lane)
	t.Logf("built %d entities: %d B allocated, %d B held (%.2fx)", lane.total, allocated, held, float64(allocated)/float64(held))
	if allocated > 2*held {
		t.Errorf("building allocated %d B for %d B held: more than 2x", allocated, held)
	}
	if fillCohort := &lane.cohorts[len(lane.cohorts)-1]; len(fillCohort.runs) != fill/16 {
		t.Fatalf("untagged Fixed cohort: %d runs, want %d", len(fillCohort.runs), fill/16)
	}
	fixed := 0
	for ci := range lane.cohorts {
		c := &lane.cohorts[ci]
		arrays, slots := [][]float64{c.delivered, c.dropped}, c.size()
		if c.par.Model == Fixed {
			fixed++
			slots = len(c.runs)
		} else {
			arrays = append(arrays, c.rate)
		}
		if c.par.Model == ECN {
			arrays = append(arrays, c.alpha)
		}
		if c.rate != nil && c.par.Model == Fixed || c.alpha != nil && c.par.Model != ECN {
			t.Fatalf("cohort %d (%v): %d rate and %d alpha slots it has no use for", ci, c.par.Model, len(c.rate), len(c.alpha))
		}
		for _, a := range arrays {
			if len(a) != slots || cap(a) != slots {
				t.Fatalf("cohort %d (%v, %d entities in %d runs): array len %d cap %d, want both %d", ci, c.par.Model, c.size(), len(c.runs), len(a), cap(a), slots)
			}
		}
	}
	if fixed != 2 {
		t.Fatalf("%d Fixed cohorts, want buildLane's tagged one and the untagged fill", fixed)
	}
}

// TestLaneLayoutLifecycle walks a lane through every point its storage can
// be read at against refLane, bitwise, through checkLayout: entities
// registered before Start, answered from registration (nothing delivered or
// dropped, the registered rate, floored for a reactive model), with no
// storage behind them; the first Start, which lays everything out at exact
// size; an AddN on a running lane, which lays out its tail at once — on a
// tagged Fixed run, a run of its own beside the one whose sums it does not
// share; and, between Stop and a restart, an AddN extending a laid-out
// cohort, which does too, and one opening a new cohort, which the restart
// lays out.
func TestLaneLayoutLifecycle(t *testing.T) {
	const epoch = 100 * sim.Microsecond
	eng := sim.NewEngine()
	var tables [2]*core.Table
	for i := range tables {
		tables[i] = core.NewTable()
		tables[i].Deploy(core.Config{ID: 1, Rate: units.Gbps, Limit: 30_000})
		tables[i].Deploy(core.Config{ID: 2, Rate: units.Gbps, CC: core.ECNType, ECNThreshold: 4_000, Limit: 30_000})
	}
	pipe := topo.NewPipe(eng, 10*units.Gbps, sim.Microsecond, 0, 0, sink{})
	lane := NewLane(eng, tables[0], epoch)
	pi := lane.AddPipe(pipe)
	ref := &refLane{table: tables[1], pipeCap: []float64{pipe.Rate().BytesPerNano()}, accepted: make([]float64, 1)}
	var pars [3]Params
	for i, name := range []string{"cubic", "dctcp", "udp"} {
		pars[i] = ParamsFor(name)
		pars[i].MinRate = 20 * units.Mbps.BytesPerNano()
	}
	var laid []int // see layOut
	add := func(p, n int, aq packet.AQID, rate units.BitRate) Entity {
		cfg := EntityConfig{AQ: aq, Params: &pars[p], Rate: rate, Pipe: pi}
		e := lane.AddN(cfg, n)
		ref.add(cfg, n)
		if lane.running {
			laid = layOut(laid, lane)
		}
		checkLayout(t, lane, ref, tables, laid)
		return e
	}
	next := epoch // when the lane's next epoch fires
	run := func(k int) {
		ref.start()
		laid = layOut(laid, lane)
		for ; k > 0; k-- {
			eng.RunUntil(next + epoch/2)
			ref.step(next, epoch)
			checkLayout(t, lane, ref, tables, laid)
			next += epoch
		}
	}

	slow := add(0, 16, 1, 5*units.Mbps) // below the 20 Mbps floor
	add(0, 16, 2, 400*units.Mbps)
	add(1, 17, 2, 300*units.Mbps)
	add(2, 16, 1, 250*units.Mbps)
	if got, want := slow.Rate(), units.BitRate(pars[0].MinRate*8e9); got != want || slow.Delivered() != 0 || slow.Dropped() != 0 {
		t.Fatalf("before Start: rate %v delivered %v dropped %v, want %v 0 0", got, slow.Delivered(), slow.Dropped(), want)
	}

	lane.Start(0)
	for ci := range lane.cohorts {
		c := &lane.cohorts[ci]
		slots := c.size()
		if c.par.Model == Fixed {
			slots = len(c.runs)
		}
		if cap(c.delivered) != slots || cap(c.dropped) != slots || cap(c.rate) != len(c.rate) || cap(c.alpha) != len(c.alpha) {
			t.Fatalf("cohort %d laid out with slack: caps %d %d %d %d for %d entities in %d runs",
				ci, cap(c.delivered), cap(c.dropped), cap(c.rate), cap(c.alpha), c.size(), len(c.runs))
		}
	}
	run(3)
	add(2, 5, 1, 250*units.Mbps) // extends the running Fixed cohort by a tagged run of its own
	add(0, 33, 2, 3*units.Mbps)  // a new cubic cohort, floored
	add(0, 7, 1, 100*units.Mbps) // its second run
	run(3)

	lane.Stop()
	ref.stop()
	add(0, 4, 1, 100*units.Mbps) // extends a laid-out cohort: its tail at once
	add(1, 9, 1, 50*units.Mbps)  // a new cohort: no storage until the restart
	add(2, 6, 2, 75*units.Mbps)  // a new Fixed cohort: likewise
	add(2, 6, 2, 75*units.Mbps)  // the same run, extended before its layout
	lane.Start(eng.Now())
	next = eng.Now() + epoch
	run(3)
	lane.Stop()
	checkLayout(t, lane, ref, tables, laid)
}

// BenchmarkLaneBuild: one million entities registered sixteen per AddN,
// then the Start that lays their state out.
func BenchmarkLaneBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildLane(1_000_000).Start(0)
	}
}
