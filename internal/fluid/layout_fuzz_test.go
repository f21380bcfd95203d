package fluid

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/topo"
	"aqueue/internal/units"
)

// FuzzLaneLayout drives the lane's storage layout — the run table for what
// registration fixed, per-entity arrays only for what a model evolves —
// against refLane, the one-object-per-entity reference, with a byte script
// of Add/AddN calls, epochs and table edits, and compares the two bitwise
// after every epoch and after Stop. What the layout has to get right and a
// script can reach: runs that merge across AddN calls and runs that must
// not (equal tag, different demand cap or rate), runs ending exactly on,
// one short of and one past a 64-entity chunk, a run spanning four chunks,
// Fixed cohorts with no rate array beside reactive ones with it, untagged
// Fixed cohorts with one delivered and dropped slot per run, which an add
// to a laid-out one extends by a run of its own and a tagged add expands
// per entity, a meter first attached to a late entity, a cohort grown while
// it is running and while the lane is stopped, and the read-only accessors,
// which find an entity's run by binary search. The lane starts at the script's first epoch op, so the
// leading adds register on a lane with no per-entity storage yet: each is
// compared through the accessors as it lands, the first Start lays the
// whole population out, and every add after it lays out its own tail, or,
// on a stopped lane, only a laid-out cohort's.
//
// Script encoding, one op byte at a time:
//
//	op&3 == 0, 1  add: n = layoutSizes[op>>2&7], unpiped = op>>5&1, rate
//	              menu entry op>>6; then a shape byte sh: tag menu entry
//	              sh&7 (mod 6), model sh>>3&3, demand cap sh>>5&3 (none,
//	              rate/2, rate·2, rate), metered = sh>>7; compared at once
//	              while the lane is not running
//	op&3 == 2     op>>5 == 7: Stop, then a full comparison; otherwise
//	              Start at the last epoch if not running, then 1 + op>>2&7
//	              epochs, each followed by a full comparison
//	op&3 == 3     table edit op>>2 mod 6: deploy 9, remove 9, remove 2,
//	              redeploy 2, a packet on AQ 1 now, a packet on AQ 3 whose
//	              last_time lands past the next epoch
//
// Every number is compared bitwise: the entities' own, the lane's byte
// totals, the pipe account, the table's counters, the AQs' registers and
// the meters.
func FuzzLaneLayout(f *testing.F) {
	f.Add([]byte{0x08, 0x09, 0x02})
	f.Fuzz(runLayoutScript)
}

var (
	layoutSizes = [8]int{1, 15, 16, 17, 63, 64, 65, 200}
	// Tag menu: 9 is deployed only by a table edit, 2 can be removed.
	layoutTags   = [6]packet.AQID{packet.NoAQ, 1, 2, 3, 5, 9}
	layoutRates  = [4]units.BitRate{10 * units.Mbps, 30 * units.Mbps, 200 * units.Mbps, 7 * units.Mbps}
	layoutModels = [4]string{"udp", "cubic", "dctcp", "swift"}
)

func runLayoutScript(t *testing.T, script []byte) {
	const (
		epoch       = 100 * sim.Microsecond
		maxEntities = 4096
		maxEpochs   = 40
	)
	deploy := []core.Config{
		{ID: 1, Rate: 2 * units.Gbps, Limit: 40_000},
		{ID: 2, Rate: units.Gbps, CC: core.ECNType, ECNThreshold: 8_000, Limit: 30_000},
		{ID: 3, Rate: 500 * units.Mbps, CC: core.DelayType, Limit: 20_000},
		{ID: 5, Rate: 100 * units.Mbps, Limit: 1},
	}
	late := core.Config{ID: 9, Rate: 100 * units.Gbps, Limit: 1 << 40}
	eng := sim.NewEngine()
	var tables [2]*core.Table
	for i := range tables {
		tables[i] = core.NewTable()
		for _, cfg := range deploy {
			tables[i].Deploy(cfg)
		}
	}
	both := func(f func(t *core.Table)) { f(tables[0]); f(tables[1]) }
	pipe := topo.NewPipe(eng, 10*units.Gbps, sim.Microsecond, 0, 0, sink{})
	lane := NewLane(eng, tables[0], epoch)
	pi := lane.AddPipe(pipe)
	ref := &refLane{table: tables[1], pipeCap: []float64{pipe.Rate().BytesPerNano()}, accepted: make([]float64, 1)}
	var pars [4]Params
	for m, name := range layoutModels {
		pars[m] = ParamsFor(name)
		pars[m].MinRate = units.Mbps.BytesPerNano() // room for the reactive models to move both ways
	}
	var meters [2][]*stats.Meter

	epochs := 0
	var laid []int // see layOut
	for len(script) > 0 && epochs < maxEpochs {
		op := script[0]
		script = script[1:]
		switch op & 3 {
		case 0, 1:
			if len(script) == 0 {
				break
			}
			sh := script[0]
			script = script[1:]
			n := layoutSizes[op>>2&7]
			if len(ref.ents)+n > maxEntities {
				break
			}
			model, metered := Model(sh>>3&3), sh>>7 == 1
			cfg := EntityConfig{AQ: layoutTags[sh&7%6], Params: &pars[model], Rate: layoutRates[op>>6], Pipe: pi}
			if op>>5&1 == 1 {
				cfg.Pipe = -1
			}
			switch sh >> 5 & 3 {
			case 1:
				cfg.Demand = cfg.Rate / 2
			case 2:
				cfg.Demand = cfg.Rate * 2
			case 3:
				cfg.Demand = cfg.Rate
			}
			cfgs := [2]EntityConfig{cfg, cfg}
			if metered {
				for i := range cfgs {
					cfgs[i].Meter = stats.NewMeter(epoch)
					meters[i] = append(meters[i], cfgs[i].Meter)
				}
			}
			if n == 1 {
				lane.Add(cfgs[0])
			} else {
				lane.AddN(cfgs[0], n)
			}
			ref.add(cfgs[1], n)
			if lane.running {
				laid = layOut(laid, lane)
			} else {
				checkLayout(t, lane, ref, tables, laid)
			}
		case 2:
			if op>>5 == 7 {
				lane.Stop()
				checkLayout(t, lane, ref, tables, laid)
				break
			}
			// A no-op while running. The engine is half an epoch past the
			// last one, so the next fires on the reference's grid.
			lane.Start(sim.Time(epochs) * epoch)
			laid = layOut(laid, lane)
			for k := 1 + int(op>>2&7); k > 0 && epochs < maxEpochs; k-- {
				epochs++
				now := sim.Time(epochs) * epoch
				eng.RunUntil(now + epoch/2) // the epoch fires at now
				ref.step(now, epoch)
				checkLayout(t, lane, ref, tables, laid)
			}
		case 3:
			switch op >> 2 % 6 {
			case 0:
				both(func(t *core.Table) { t.Deploy(late) })
			case 1:
				both(func(t *core.Table) { t.Remove(9) })
			case 2:
				both(func(t *core.Table) { t.Remove(2) })
			case 3:
				both(func(t *core.Table) { t.Deploy(deploy[1]) })
			case 4:
				both(func(t *core.Table) { t.Lookup(1).Update(eng.Now(), 9000) })
			case 5:
				both(func(t *core.Table) { t.Lookup(3).Update(eng.Now()+epoch+7, 1500) })
			}
		}
	}
	lane.Stop()
	checkLayout(t, lane, ref, tables, laid)

	bits := math.Float64bits
	for _, id := range tables[1].IDs() {
		a, r := tables[0].Lookup(id), tables[1].Lookup(id)
		as, rs := a.Stats(), r.Stats()
		if bits(a.Gap()) != bits(r.Gap()) || a.VirtualDelay() != r.VirtualDelay() ||
			bits(as.FluidBytes) != bits(rs.FluidBytes) || bits(as.FluidDropped) != bits(rs.FluidDropped) || bits(as.FluidMarked) != bits(rs.FluidMarked) {
			t.Fatalf("AQ %d: gap %v stats %+v, reference gap %v stats %+v", id, a.Gap(), as, r.Gap(), rs)
		}
	}
	for i, m := range meters[0] {
		if got, want := m.Stats().TotalBytes, meters[1][i].Stats().TotalBytes; got != want {
			t.Fatalf("meter %d: %d bytes, reference %d", i, got, want)
		}
	}
}

// layOut extends laid, which holds for each cohort with storage how many
// runs it had when it got it, by the cohorts laid out since: all of them
// while the lane is running, those a Start saw otherwise. Call it at once
// after the Start or running add that laid them out.
func layOut(laid []int, lane *Lane) []int {
	for ci := len(laid); ci < len(lane.cohorts); ci++ {
		laid = append(laid, len(lane.cohorts[ci].runs))
	}
	return laid
}

// checkLayout compares the lane with the reference entity by entity in
// registration order, checks the run table's own invariants on the way —
// runs ordered, non-empty, maximal but where an add to a laid-out per-run
// cohort opened a run of its own (a run past the laid[ci] cohort ci had
// when it got storage, untagged like every run before it) — and the
// storage: the first len(laid) cohorts hold delivered and dropped spanning the cohort, one slot per run
// for a Fixed cohort with no tagged run and per entity otherwise, rate too
// for a reactive model and alpha for ECN, and the rest, registered since
// the last Start on a lane that is not running, hold none. It reads the
// first and last entity of every run through the public handle, whose AQID,
// Rate, Delivered and Dropped find the run by binary search (runIndex).
func checkLayout(t testing.TB, lane *Lane, ref *refLane, tables [2]*core.Table, laid []int) {
	t.Helper()
	laidOut := len(laid)
	bits := math.Float64bits
	if lane.total != len(ref.ents) {
		t.Fatalf("%d entities, reference %d", lane.total, len(ref.ents))
	}
	base := 0 // registration index of the cohort's first entity
	for ci := range lane.cohorts {
		c := &lane.cohorts[ci]
		// untaggedTo[ri]: a Fixed cohort with no tagged run among 0..ri.
		untaggedTo := make([]bool, len(c.runs))
		for ri, run := range c.runs {
			untaggedTo[ri] = c.par.Model == Fixed && run.aqid == packet.NoAQ && (ri == 0 || untaggedTo[ri-1])
		}
		slots := func(has bool) int {
			if ci < laidOut && has {
				return c.size()
			}
			return 0
		}
		perRun := ci < laidOut && untaggedTo[len(c.runs)-1]
		outcomes := slots(true)
		if perRun {
			outcomes = len(c.runs)
		}
		if len(c.delivered) != outcomes || len(c.dropped) != outcomes || c.perRun != perRun ||
			len(c.rate) != slots(c.par.Model != Fixed) || len(c.alpha) != slots(c.par.Model == ECN) {
			t.Fatalf("cohort %d (%v, %d entities in %d runs, %d of %d laid out, per run %v): %d delivered, %d dropped, %d rate, %d alpha slots",
				ci, c.par.Model, c.size(), len(c.runs), laidOut, len(lane.cohorts), c.perRun, len(c.delivered), len(c.dropped), len(c.rate), len(c.alpha))
		}
		lo := int32(0)
		for ri, run := range c.runs {
			if run.end <= lo {
				t.Fatalf("cohort %d run %d ends at %d, previous at %d", ci, ri, run.end, lo)
			}
			if ri > 0 && !(ci < laidOut && ri >= laid[ci] && untaggedTo[ri]) {
				if p := c.runs[ri-1]; p.aqid == run.aqid && p.demand == run.demand && p.rate == run.rate {
					t.Fatalf("cohort %d runs %d and %d are one run split in two: %+v", ci, ri-1, ri, run)
				}
			}
			for _, i := range [2]int32{lo, run.end - 1} {
				e, r := Entity{lane: lane, c: int32(ci), i: i}, &ref.ents[base+int(i)]
				if e.AQID() != r.id || e.Rate() != units.BitRate(r.rate*8e9) ||
					bits(e.Delivered()) != bits(r.delivered) || bits(e.Dropped()) != bits(r.dropped) {
					t.Fatalf("handle (%d,%d): tag %d rate %v delivered %v dropped %v, reference %d %v %v %v", ci, i,
						e.AQID(), e.Rate(), e.Delivered(), e.Dropped(), r.id, units.BitRate(r.rate*8e9), r.delivered, r.dropped)
				}
			}
			lo = run.end
		}
		for i := int32(0); i < lo; i++ {
			r := &ref.ents[base+int(i)]
			if delivered, dropped := c.outcomeAt(i); bits(c.rateAt(i)) != bits(r.rate) || bits(delivered) != bits(r.delivered) || bits(dropped) != bits(r.dropped) {
				t.Fatalf("entity (%d,%d) (tag %d, %v): rate %v delivered %v dropped %v, reference %v %v %v", ci, i, r.id, r.par.Model,
					c.rateAt(i), delivered, dropped, r.rate, r.delivered, r.dropped)
			}
			if c.alpha != nil && bits(c.alpha[i]) != bits(r.alpha) {
				t.Fatalf("entity (%d,%d): alpha %v, reference %v", ci, i, c.alpha[i], r.alpha)
			}
			if metered := c.meters != nil && c.meters[i] != nil; metered != (r.meter != nil) {
				t.Fatalf("entity (%d,%d): metered %v, reference %v", ci, i, metered, r.meter != nil)
			}
		}
		base += c.size()
	}
	st, got, want := lane.Stats(), tables[0].Stats(), tables[1].Stats()
	if bits(st.DeliveredBytes) != bits(ref.delivered) || bits(st.DroppedBytes) != bits(ref.dropped) || st.SkippedEntityEpochs != 0 {
		t.Fatalf("lane delivered %v dropped %v (%d skipped), reference %v %v", st.DeliveredBytes, st.DroppedBytes, st.SkippedEntityEpochs, ref.delivered, ref.dropped)
	}
	if bits(lane.pipes[0].accepted) != bits(ref.accepted[0]) {
		t.Fatalf("pipe accepted rate %v, reference %v", lane.pipes[0].accepted, ref.accepted[0])
	}
	if got != want {
		t.Fatalf("table stats %+v, reference %+v", got, want)
	}
}

// TestCheckLayoutCatchesSplitRun keeps checkLayout's maximality check
// honest where the per-run layout exempts runs from it: two equal untagged
// Fixed AddN calls on a cohort with no storage yet merge into one run, and
// the check must reject that run split in two, both before the Start that
// lays the cohort out and after it.
func TestCheckLayoutCatchesSplitRun(t *testing.T) {
	const epoch = 100 * sim.Microsecond
	eng := sim.NewEngine()
	tables := [2]*core.Table{core.NewTable(), core.NewTable()}
	pipe := topo.NewPipe(eng, 10*units.Gbps, sim.Microsecond, 0, 0, sink{})
	lane := NewLane(eng, tables[0], epoch)
	lane.AddPipe(pipe)
	ref := &refLane{table: tables[1], pipeCap: []float64{pipe.Rate().BytesPerNano()}, accepted: make([]float64, 1)}
	par := ParamsFor("udp")
	cfg := EntityConfig{AQ: packet.NoAQ, Params: &par, Rate: 62.5 * units.Mbps, Pipe: -1}
	for range 2 {
		lane.AddN(cfg, 16)
		ref.add(cfg, 16)
	}
	if len(lane.cohorts) != 1 || len(lane.cohorts[0].runs) != 1 {
		t.Fatalf("two equal untagged AddN calls: %d cohorts, first with runs %+v", len(lane.cohorts), lane.cohorts[0].runs)
	}
	checkLayout(t, lane, ref, tables, nil)

	c := &lane.cohorts[0]
	first := c.runs[0]
	first.end = 16
	c.runs = []tagRun{first, c.runs[0]}
	rec := &fatalRecorder{TB: t}
	if msg := rec.run(func() { checkLayout(rec, lane, ref, tables, nil) }); !strings.Contains(msg, "split in two") {
		t.Fatalf("run split before Start: checkLayout reported %q", msg)
	}
	lane.Start(0)
	defer lane.Stop()
	if !c.perRun || len(c.delivered) != 2 {
		t.Fatalf("after Start: per run %v, %d delivered slots", c.perRun, len(c.delivered))
	}
	if msg := rec.run(func() { checkLayout(rec, lane, ref, tables, []int{2}) }); !strings.Contains(msg, "split in two") {
		t.Fatalf("run split before the layout, checked after it: checkLayout reported %q", msg)
	}
}

// fatalRecorder is a testing.TB whose Fatalf records its message and
// unwinds the call run made, so a test can assert that a check fails.
type fatalRecorder struct {
	testing.TB
	msg string
}

func (r *fatalRecorder) Helper() {}

func (r *fatalRecorder) Fatalf(format string, args ...any) {
	r.msg = fmt.Sprintf(format, args...)
	panic(r)
}

// run calls f and returns the message of the Fatalf that ended it, or ""
// if none did.
func (r *fatalRecorder) run(f func()) string {
	r.msg = ""
	func() {
		defer func() {
			if p := recover(); p != nil && p != any(r) {
				panic(p)
			}
		}()
		f()
	}()
	return r.msg
}
