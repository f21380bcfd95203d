package fluid

import (
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
				// The untagged fill: one per-run cohort, one slot update per
				// run and epoch.
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

// TestLaneHeapPerEntity is the absolute bound on per-entity host memory in
// the benchmark's shape: the cohorts' run tables and arrays plus the
// shared-AQ state, fabric and foreground included, must fit in 24 live
// bytes per entity once built (23.1 measured with go1.24 on linux/amd64:
// 16 B for a tagged Fixed entity, 24 B for a loss one, nothing per entity
// for the untagged fill, which holds one delivered/dropped pair per run,
// and the rest AQs, their one ID-index layout each, and append slack). The
// bound pins the layout: the fill laid out per entity read 27.7, a map
// kept beside every table's dense mirror 24.6, and one more float64 column
// per tagged entity would add 6. Both readings follow a collection, so dead
// append backing arrays are not priced. The benchmark's built_heap_mb holds
// the relative 5 % line from PR to PR; this is the line a run of small
// regressions cannot walk past.
func TestLaneHeapPerEntity(t *testing.T) {
	const entities, budget = 200_000, 24.0
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
