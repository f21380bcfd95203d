package main

import (
	"fmt"
	"math"

	"aqueue/internal/cc"
	"aqueue/internal/core"
	"aqueue/internal/fluid"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
)

// fluid_scale: the fluid lane at a million entities. A k=8 fat tree on one
// engine; every edge switch carries a lane whose entities share AQs in
// groups of 16 (deployed with Table.DeployBatch), three fixed-rate groups
// to one loss-reactive group among the tagged, a quarter of the population
// untagged quiescent fill, and only eight packet CUBIC flows in the
// foreground. fluid + AQ.OnFluidEpoch do nearly all the work; the only
// workload whose set-up time and live heap are per-entity state.
const (
	fluidK         = 8
	fluidEntities  = 1_000_000
	fluidPerAQ     = 16
	fluidFillFrac  = 0.25
	fluidEpoch     = 500 * sim.Microsecond
	fluidHorizon   = 5 * sim.Millisecond
	fluidFGFlows   = 8
	fluidLossEvery = 4 // group g is loss-reactive iff g%4 == 0
)

type fluidEdge struct {
	sw        *topo.Switch
	lane      *fluid.Lane
	fill      int
	fillRate  float64 // bytes per ns, per fill entity
	fixedAQs  []*core.AQ
	fixedRate []float64 // granted bytes per ns, parallel to fixedAQs
}

type fluidState struct {
	c       *sim.Cluster
	ft      *topo.FatTree
	edges   []fluidEdge
	senders []*transport.Sender
}

// offered returns, edge by edge, the fluid bytes each fixed-rate group's AQ
// has been offered and has dropped so far.
func (st *fluidState) offered() (bytes, dropped []float64) {
	for _, e := range st.edges {
		for _, aq := range e.fixedAQs {
			s := aq.Stats()
			bytes = append(bytes, s.FluidBytes)
			dropped = append(dropped, s.FluidDropped)
		}
	}
	return bytes, dropped
}

func fluidIterate(seed uint64, rec *recorder, hp *heapProbe) iterOut {
	var out iterOut
	rng := sim.NewRand(seed)
	latHist.reset()
	measuring := false

	watch := startWatch()
	id := rec.begin("setup.topo")
	c := sim.NewCluster(1)
	tspec := topo.DefaultSim()
	ft := topo.NewFatTreeIn(c, fluidK, tspec, tspec)
	st := &fluidState{c: c, ft: ft}
	rec.end(id)
	watch.lap()

	const half = fluidK / 2
	nEdges := fluidK * half
	perEdge := fluidEntities / nEdges

	// Registration is grouped by (class, pipe) so entities land in long
	// cohort runs, and AQ configs are deployed in the same order so a
	// lane's table walk is sequential over the DeployBatch slab.
	type group struct {
		g, n  int
		offer float64 // offered rate as a multiple of the fair share
	}
	plans := make([][]group, nEdges)
	id = rec.begin("setup.deploy")
	for p := 0; p < fluidK; p++ {
		for e := 0; e < half; e++ {
			sw := ft.Edges[p][e]
			fill := int(fluidFillFrac * float64(perEdge))
			tagged := perEdge - fill
			groups := (tagged + fluidPerAQ - 1) / fluidPerAQ
			share := float64(half) * float64(tspec.Rate) / float64(perEdge)
			edge := fluidEdge{sw: sw, fill: fill, fillRate: units.BitRate(0.5 * share).BytesPerNano()}
			var plan []group
			cfgs := make([]core.Config, 0, groups)
			for class := 0; class < 2; class++ {
				for pp := 0; pp < half; pp++ {
					for g := 0; g < groups; g++ {
						loss := g%fluidLossEvery == 0
						if (class == 1) != loss || g%half != pp {
							continue
						}
						n := fluidPerAQ
						if g == groups-1 {
							n = tagged - g*fluidPerAQ
						}
						// Groups offer 1.5–2.5× their fair share, the seed's
						// contribution to the population; grants stay at half
						// the fair share, so every AQ sheds bytes every epoch.
						plan = append(plan, group{g: g, n: n, offer: 1.9 + 0.2*rng.Float64()})
						alloc := units.BitRate(0.5 * share * float64(n))
						limit := int(alloc.BytesPerNano() * float64(2*fluidEpoch))
						if limit < 1 {
							limit = 1
						}
						cfgs = append(cfgs, core.Config{ID: packet.AQID(g + 1), Rate: alloc, Limit: limit})
					}
				}
			}
			sw.Ingress.DeployBatch(cfgs)
			for _, cfg := range cfgs {
				if int(cfg.ID-1)%fluidLossEvery != 0 {
					edge.fixedAQs = append(edge.fixedAQs, sw.Ingress.Lookup(cfg.ID))
					edge.fixedRate = append(edge.fixedRate, cfg.Rate.BytesPerNano())
				}
			}
			plans[p*half+e] = plan
			st.edges = append(st.edges, edge)
		}
	}
	rec.end(id)
	watch.lap()

	id = rec.begin("setup.attach")
	for ei := range st.edges {
		edge := &st.edges[ei]
		share := float64(half) * float64(tspec.Rate) / float64(perEdge)
		lane := fluid.NewLane(edge.sw.Engine(), edge.sw.Ingress, fluidEpoch)
		pipes := make([]int, half)
		for i := 0; i < half; i++ {
			pipes[i] = lane.AddPipe(ft.Hosts[ei*half+i].Uplink())
		}
		lossPar := fluid.ParamsFor("cubic")
		lossPar.MinRate = units.BitRate(share).BytesPerNano() / 4
		for _, gr := range plans[ei] {
			cfg := fluid.EntityConfig{
				AQ:   packet.AQID(gr.g + 1),
				Rate: units.BitRate(gr.offer * share),
				Pipe: pipes[gr.g%half],
			}
			if gr.g%fluidLossEvery == 0 {
				cfg.Params = &lossPar
				cfg.Demand = cfg.Rate
			}
			lane.AddN(cfg, gr.n)
		}
		if edge.fill > 0 {
			lane.AddN(fluid.EntityConfig{Rate: units.BitRate(0.5 * share), Pipe: -1}, edge.fill)
		}
		lane.SetDeadline(fluidHorizon)
		lane.Start(0)
		edge.lane = lane
	}
	nHosts := len(ft.Hosts)
	for i := 0; i < fluidFGFlows; i++ {
		src := ft.Hosts[i%nHosts]
		dst := ft.Hosts[(i+2*ft.HostsPerPod())%nHosts]
		s := transport.NewSender(src, dst, 0, cc.NewCubic(), transport.Options{})
		s.Start(sim.Time(rng.Intn(int(10 * sim.Microsecond))))
		st.senders = append(st.senders, s)
		eng := src.Engine()
		src.RxHook = func(p *packet.Packet) {
			if measuring && p.Kind == packet.Ack {
				latHist.add(eng.Now() - p.EchoSentAt)
			}
		}
	}
	rec.end(id)
	watch.lap()
	out.setup = watch.parts
	hp.atBuilt()

	pending := func() (n int) {
		for _, eng := range c.Engines() {
			n += eng.Pending()
		}
		return n
	}
	var off0, drop0 []float64
	out.run, out.counts.PendingSum = runSliced(rec, fluidHorizon, c.RunUntil, pending, func() {
		off0, drop0 = st.offered()
		measuring = true
	})
	hp.atRan()

	id = rec.begin("collect")
	// The claim "admitted rate = granted rate" is about entities that want
	// more than their grant. A group whose host uplink is saturated by a
	// foreground flow is clipped below its grant before it ever reaches the
	// AQ; it is not backlogged against the grant and is left out.
	off1, drop1 := st.offered()
	window := float64(fluidHorizon / 2)
	k := 0
	for _, e := range st.edges {
		for _, granted := range e.fixedRate {
			offer := (off1[k] - off0[k]) / window
			rate := offer - (drop1[k]-drop0[k])/window
			if offer > 1.5*granted {
				if err := 100 * math.Abs(rate-granted) / granted; err > out.shareErr {
					out.shareErr = err
				}
			}
			k++
		}
	}
	out.latencyUs = latHist.p50us()

	cn := &out.counts
	cn.EEByModel = make(map[string]uint64)
	dg := newDigester()
	for _, e := range st.edges {
		ls := e.lane.Stats()
		cn.FluidEntities += uint64(ls.Entities)
		cn.EntityEpochs += ls.EntityEpochs
		cn.SkippedEE += ls.SkippedEntityEpochs
		cn.FluidDelivered += ls.DeliveredBytes
		cn.FluidDropped += ls.DroppedBytes
		ts := e.sw.Ingress.Stats()
		cn.TaggedEE += ts.FluidEpochs - ts.FluidMisses
		dg.u64(ls.Epochs, ls.EntityEpochs, ls.SkippedEntityEpochs)
		dg.f64(ls.DeliveredBytes, ls.DroppedBytes)

		// Per lane: what the AQs were offered plus what the untagged fill
		// offered is what the lane delivered plus what it dropped. (Bytes
		// clipped at a full link never reach an AQ and are on neither
		// side.) The fill is unpiped and unreactive, so its offer is a
		// closed form.
		var offered float64
		for _, aqid := range e.sw.Ingress.IDs() {
			s := e.sw.Ingress.Lookup(aqid).Stats()
			offered += s.FluidBytes
		}
		offered += float64(e.fill) * e.fillRate * float64(sim.Time(ls.Epochs)*fluidEpoch)
		if got := ls.DeliveredBytes + ls.DroppedBytes; math.Abs(got-offered) > 1e-9*offered {
			out.violations = append(out.violations,
				fmt.Sprintf("lane %s: offered %.6g B != delivered+dropped %.6g B", e.sw, offered, got))
		}
	}
	for _, s := range st.senders {
		cn.TCPData += s.SentPackets
		cn.TCPRetx += s.Retransmits
		cn.TCPTimeouts += s.Timeouts
		cn.TCPFastRecovers += s.FastRecovers
		cn.PoolGets += s.SentPackets + s.Receiver().RxData
		cn.NewSenders++
		dg.u64(uint64(s.AckedBytes()), s.SentPackets)
	}
	cn.AcksByAlg = map[string]uint64{"cubic": cn.PoolGets - cn.TCPData}
	pipes := fatTreePipes(ft)
	countPipes(cn, pipes)
	for _, sws := range [][]*topo.Switch{ft.Cores, flatten(ft.Aggs), flatten(ft.Edges)} {
		for _, sw := range sws {
			countSwitch(cn, sw)
		}
	}
	for _, h := range ft.Hosts {
		cn.HostRx += h.Stats().RxPackets
	}
	for _, eng := range c.Engines() {
		es := eng.Stats()
		cn.Events += es.Processed
		cn.Inlined += es.Inlined
	}
	stepped := cn.EntityEpochs - cn.SkippedEE
	// Three of four tagged groups are fixed-rate; the stepped fill epochs
	// (the priming pass) are fixed-model too.
	var lossN uint64
	for _, plan := range plans {
		for _, gr := range plan {
			if gr.g%fluidLossEvery == 0 {
				lossN += uint64(gr.n)
			}
		}
	}
	cn.EEByModel["loss"] = lossN * uint64(fluidHorizon/fluidEpoch)
	cn.EEByModel["fixed"] = stepped - cn.EEByModel["loss"]
	out.work = cn.EntityEpochs
	dg.u64(cn.Events, cn.PendingSum, cn.PktHops, cn.HostRx, cn.TaggedEE)
	dg.f64(out.shareErr, out.latencyUs)
	out.digest = dg.sum()
	rec.end(id)
	c.Close()
	return out
}

func flatten(ss [][]*topo.Switch) []*topo.Switch {
	var out []*topo.Switch
	for _, s := range ss {
		out = append(out, s...)
	}
	return out
}

// fatTreePipes lists every pipe of the fat tree: host uplinks, and the k
// ports of every switch (down and up).
func fatTreePipes(ft *topo.FatTree) []*topo.Pipe {
	pipes := uplinks(ft.Hosts)
	for _, sws := range [][]*topo.Switch{ft.Cores, flatten(ft.Aggs), flatten(ft.Edges)} {
		for _, sw := range sws {
			for i := 0; i < ft.K; i++ {
				pipes = append(pipes, sw.Port(i))
			}
		}
	}
	return pipes
}
