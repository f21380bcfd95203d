package fluid

import (
	"math"
	"runtime"
	"testing"

	"aqueue/internal/cc"
	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
)

// The scale scenario: a k-ary fat tree whose edge switches each carry a
// fluid lane of background entities that share the host uplinks with a
// packet-level CUBIC foreground. AQ grants undercut the per-entity fair
// share by half and buffer limits hold two epochs of allocation, so the AQ
// admission path — not just the link clip — sheds bytes every epoch, and
// the residual coupling squeezes the foreground as a packet background
// would.

// scaleSpec sizes the scenario. The two shapes the tests run are one entity
// per AQ with no fill, and the benchmark's fluid_scale shape: 16 entities
// sharing each grant plus a quarter of every edge registered as fill.
type scaleSpec struct {
	k, entities, fgFlows int
	epoch, horizon       sim.Time
	perAQ                int     // entities sharing one AQ grant
	fillFrac             float64 // share of each edge that is untagged, unpiped fixed-rate fill
}

// scaleFabric is a built, not yet run, scenario.
type scaleFabric struct {
	c     *sim.Cluster
	hosts []*topo.Host
	lanes []*Lane
	aqs   int // AQs deployed over all edge tables
	model int // the paper's switch-memory model of those AQs, bytes
}

// buildScale spreads the entities evenly over the edge-switch ingress tables
// of a fat tree, points each tagged entity at a
// source-host uplink for residual accounting, and opens the foreground
// flows cross-pod. Of the tagged groups three in four are fixed-rate
// blasters and every fourth is a loss-model AIMD flow.
func buildScale(s scaleSpec) *scaleFabric {
	c := sim.NewCluster(1)
	tspec := topo.DefaultSim()
	f := topo.NewFatTreeIn(c, s.k, tspec, tspec)
	sf := &scaleFabric{c: c, hosts: f.Hosts}
	half := s.k / 2
	perEdge := s.entities / (s.k * half)
	fill := int(s.fillFrac * float64(perEdge))
	tagged := perEdge - fill
	groups := (tagged + s.perAQ - 1) / s.perAQ
	share := units.BitRate(float64(half) * float64(tspec.Rate) / float64(perEdge))

	// Group g keeps the stable tag g+1, is loss-model iff g%4 == 0, and
	// shares the uplink of host g%half. Registration runs fixed groups
	// first, then loss, each sub-ordered by pipe, so entities land in long
	// cohort runs and the DeployBatch slab is laid out as the lane walks it.
	var order []int
	for _, loss := range []bool{false, true} {
		for pp := 0; pp < half; pp++ {
			for g := pp; g < groups; g += half {
				if (g%4 == 0) == loss {
					order = append(order, g)
				}
			}
		}
	}
	groupSize := func(g int) int {
		if g == groups-1 {
			return tagged - g*s.perAQ
		}
		return s.perAQ
	}
	lossPar := ParamsFor("cubic")
	lossPar.MinRate = share.BytesPerNano() / 4

	for p := 0; p < s.k; p++ {
		for e := 0; e < half; e++ {
			sw := f.Edges[p][e]
			cfgs := make([]core.Config, 0, groups)
			for _, g := range order {
				alloc := units.BitRate(0.5 * float64(share) * float64(groupSize(g)))
				limit := max(1, int(alloc.BytesPerNano()*float64(2*s.epoch)))
				cfgs = append(cfgs, core.Config{ID: packet.AQID(g + 1), Rate: alloc, Limit: limit})
			}
			sw.Ingress.DeployBatch(cfgs)
			sf.aqs += len(cfgs)
			sf.model += sw.Ingress.MemoryBytes()

			lane := NewLane(sw.Engine(), sw.Ingress, s.epoch)
			pipes := make([]int, half)
			for i := range pipes {
				pipes[i] = lane.AddPipe(f.Hosts[(p*half+e)*half+i].Uplink())
			}
			for _, g := range order {
				cfg := EntityConfig{AQ: packet.AQID(g + 1), Rate: 2 * share, Pipe: pipes[g%half]}
				if g%4 == 0 {
					cfg.Params = &lossPar
					cfg.Demand = cfg.Rate
				}
				lane.AddN(cfg, groupSize(g))
			}
			if fill > 0 {
				// The untagged fill: an unpiped Fixed cohort of its own, one slot
				// update per run and epoch.
				lane.AddN(EntityConfig{Rate: share / 2, Pipe: -1}, fill)
			}
			lane.SetDeadline(s.horizon)
			lane.Start(0)
			sf.lanes = append(sf.lanes, lane)
		}
	}
	n := len(f.Hosts)
	for i := 0; i < s.fgFlows; i++ {
		snd := transport.NewSender(f.Hosts[i%n], f.Hosts[(i+2*f.HostsPerPod())%n], 0, cc.NewCubic(), transport.Options{})
		snd.Start(sim.Time(i) * 10 * sim.Microsecond)
	}
	return sf
}

// scaleTotals is everything a run of the scenario is compared on.
type scaleTotals struct {
	aqs, model           int
	epochs, entityEpochs uint64
	delivered, dropped   float64
	fgPackets            uint64
}

func runScale(s scaleSpec) scaleTotals {
	sf := buildScale(s)
	sf.c.RunUntil(s.horizon)
	tot := scaleTotals{aqs: sf.aqs, model: sf.model}
	for _, l := range sf.lanes {
		st := l.Stats()
		tot.epochs += st.Epochs
		tot.entityEpochs += st.EntityEpochs
		tot.delivered += st.DeliveredBytes
		tot.dropped += st.DroppedBytes
	}
	for _, h := range sf.hosts {
		tot.fgPackets += h.RxPackets
	}
	return tot
}

// TestFatTreeLanesAdvanceAndShed runs the scenario at k=4 in both shapes:
// every entity must advance every epoch, the AQ admission path must shed
// bytes, the foreground must move, and the AQs must be modelled at 15 B
// each.
func TestFatTreeLanesAdvanceAndShed(t *testing.T) {
	for _, shape := range []struct {
		name     string
		perAQ    int
		fillFrac float64
		aqs      int
	}{
		{"1-per-AQ", 1, 0, 3200},
		{"16-per-AQ+fill", 16, 0.25, 8 * 19}, // 300 tagged entities per edge in groups of 16
	} {
		t.Run(shape.name, func(t *testing.T) {
			s := scaleSpec{
				k: 4, entities: 3200, fgFlows: 8,
				epoch: 200 * sim.Microsecond, horizon: 2 * sim.Millisecond,
				perAQ: shape.perAQ, fillFrac: shape.fillFrac,
			}
			tot := runScale(s)
			if want := uint64(8 * 10); tot.epochs != want {
				t.Errorf("epochs = %d, want %d (8 lanes x 10)", tot.epochs, want)
			}
			if want := uint64(3200 * 10); tot.entityEpochs != want {
				t.Errorf("entity-epochs = %d, want %d", tot.entityEpochs, want)
			}
			if tot.delivered <= 0 {
				t.Errorf("no fluid bytes delivered")
			}
			if tot.dropped <= 0 {
				t.Errorf("no fluid bytes shed: the AQ admission path was not exercised")
			}
			if tot.fgPackets == 0 {
				t.Errorf("foreground moved no packets")
			}
			if tot.aqs != shape.aqs || tot.model != shape.aqs*15 {
				t.Errorf("%d AQs modelled at %d B, want %d at 15 B/AQ", tot.aqs, tot.model, shape.aqs)
			}
		})
	}
}

// TestFluidLedgerBalances is the fluid half of the byte ledger, checked
// from outside the lane code on the 16-per-AQ shape — tagged Fixed runs of
// 16 (and one of 12) on the uplinks, tagged loss runs, and untagged fill —
// over ten epochs with a packet foreground:
//
//   - per AQ, the bytes its own counters accepted, FluidBytes −
//     FluidDropped, equal the sum of what its entities read as Delivered;
//   - per lane, the bytes its entities were offered — their rate times the
//     epoch, read between epochs through Rate — equal the sum of what they
//     read as Delivered plus Dropped, AQ sheds and pipe clips together.
//
// Neither side is computed the other's way, so they agree only to
// rounding, and each tolerance is the first-order bound on it: u = 2^-53
// times the magnitude times the roundings that feed either side. Per AQ,
// over m entity-epochs of n entities: m terms in each of FluidBytes,
// FluidDropped and a run's delivered sum, m rounded accepted = offered −
// dropped, the n shares of the run's sum and the n-term sum of them, and
// the subtraction: 4m + 2n + 1. Per lane, over M entity-epochs of N
// entities: three roundings in each offered term (Rate's bit rate, the
// byte rate, the product with the epoch) and one in its M-term sum, five
// in the lane's (want·fdt, accepted + dropped, the clip, dropped + clip,
// the share), one each in the delivered and dropped sums, and the N-term
// sum of the entities: 11M + N.
func TestFluidLedgerBalances(t *testing.T) {
	const epoch, epochs = 200 * sim.Microsecond, 10
	const u = 0x1p-53
	sf := buildScale(scaleSpec{
		k: 4, entities: 3200, fgFlows: 8,
		epoch: epoch, horizon: epochs * epoch,
		perAQ: 16, fillFrac: 0.25,
	})
	offered := make([]float64, len(sf.lanes))
	for k := 0; k < epochs; k++ {
		for li, l := range sf.lanes {
			for _, e := range l.Entities() {
				offered[li] += e.Rate().BytesPerNano() * float64(epoch)
			}
		}
		sf.c.RunUntil(sim.Time(k)*epoch + 3*epoch/2) // epoch k+1 fires at (k+1)·epoch
	}

	fixedRuns := 0
	for li, l := range sf.lanes {
		if st := l.Stats(); st.Epochs != epochs || st.Entities != 400 {
			t.Fatalf("lane %d: %d epochs of %d entities, want %d of 400", li, st.Epochs, st.Entities, epochs)
		}
		for ci := range l.cohorts {
			if c := &l.cohorts[ci]; c.par.Model == Fixed && c.runs[0].aqid != packet.NoAQ {
				fixedRuns += len(c.runs)
			}
		}
		delivered := map[packet.AQID]float64{}
		members := map[packet.AQID]int{}
		var ledger float64
		ents := l.Entities()
		for _, e := range ents {
			if id := e.AQID(); id != packet.NoAQ {
				delivered[id] += e.Delivered()
				members[id]++
			}
			ledger += e.Delivered() + e.Dropped()
		}
		for _, id := range l.table.IDs() {
			aq := l.table.Lookup(id)
			st := aq.Stats()
			m, n := float64(epochs*members[id]), float64(members[id])
			accepted := st.FluidBytes - st.FluidDropped
			tol := (4*m + 2*n + 1) * u * st.FluidBytes
			if n == 0 || st.FluidDropped <= 0 || math.Abs(accepted-delivered[id]) > tol {
				t.Fatalf("lane %d AQ %d: accepted %v (FluidBytes %v − FluidDropped %v), its %v entities delivered %v: off by %.3g, tolerance %.3g",
					li, id, accepted, st.FluidBytes, st.FluidDropped, n, delivered[id], accepted-delivered[id], tol)
			}
		}
		bigM, bigN := float64(epochs*len(ents)), float64(len(ents))
		if tol := (11*bigM + bigN) * u * offered[li]; math.Abs(offered[li]-ledger) > tol {
			t.Fatalf("lane %d: offered %v, delivered + dropped %v: off by %.3g, tolerance %.3g", li, offered[li], ledger, offered[li]-ledger, tol)
		}
	}
	if fixedRuns == 0 {
		t.Fatalf("no tagged Fixed run: the shape lost what this test checks")
	}
}

// TestLaneHeapPerEntity is the absolute bound on per-entity host memory in
// the benchmark's shape: the cohorts' run tables and arrays plus the
// shared-AQ state, fabric and foreground included, must fit in 16 live
// bytes per entity once built (13.8 measured with go1.24 on linux/amd64:
// 24 B for a loss entity, nothing per entity for the Fixed ones, tagged or
// untagged fill, which hold one delivered/dropped pair per run, and the
// rest AQs, their one ID-index layout each, and append slack). The bound
// pins the layout: tagged Fixed entities holding their own pair read 23.0,
// the fill laid out per entity too 27.7, and one more float64 column per
// tagged entity would add 6. It also asserts the layout itself: every
// Fixed cohort holds two slots per run, so a tagged run of 16 holds 2, not
// 32. Both readings follow a collection, so dead append backing arrays are
// not priced. The benchmark's built_heap_mb holds the relative 5 % line
// from PR to PR; this is the line a run of small regressions cannot walk
// past.
func TestLaneHeapPerEntity(t *testing.T) {
	const entities, budget = 200_000, 16.0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sf := buildScale(scaleSpec{
		k: 4, entities: entities, fgFlows: 8,
		epoch: 500 * sim.Microsecond, horizon: 5 * sim.Millisecond,
		perAQ: 16, fillFrac: 0.25,
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sf)
	perEntity := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / entities
	t.Logf("%.1f live heap bytes per entity at %d entities", perEntity, entities)
	if perEntity > budget {
		t.Errorf("live heap %.1f B/entity exceeds the %.0f B/entity budget", perEntity, budget)
	}
	taggedRuns := 0
	for _, l := range sf.lanes {
		for ci := range l.cohorts {
			c := &l.cohorts[ci]
			if c.par.Model != Fixed {
				continue
			}
			if slots := len(c.delivered) + len(c.dropped); slots != 2*len(c.runs) {
				t.Fatalf("Fixed cohort of %d entities in %d runs holds %d outcome slots, want 2 a run", c.size(), len(c.runs), slots)
			}
			for _, r := range c.runs {
				if r.aqid != packet.NoAQ {
					taggedRuns++
				}
			}
		}
	}
	if taggedRuns == 0 {
		t.Fatalf("no tagged Fixed run: the shape lost what this test checks")
	}
}

// BenchmarkLaneFire: what one epoch of the benchmark's fluid_scale shape
// costs, at k = 4 — sixteen tagged entities per AQ grant, a quarter of every
// edge registered as untagged fill, 25 000 entities on each of the eight
// edge lanes — reported per entity-epoch. There is no foreground, so the
// engine runs nothing but the lanes' epochs; one op is one epoch of every
// lane.
func BenchmarkLaneFire(b *testing.B) {
	const epoch = 100 * sim.Microsecond
	sf := buildScale(scaleSpec{k: 4, entities: 200_000, epoch: epoch, perAQ: 16, fillFrac: 0.25})
	next := epoch
	sf.c.RunUntil(next) // the first epoch, outside the timer
	var entityEpochs uint64
	for _, l := range sf.lanes {
		entityEpochs -= l.Stats().EntityEpochs
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next += epoch
		sf.c.RunUntil(next)
	}
	b.StopTimer()
	for _, l := range sf.lanes {
		entityEpochs += l.Stats().EntityEpochs
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entityEpochs), "ns/entity-epoch")
}
