package main

import (
	"fmt"
	"math"

	"aqueue/internal/cc"
	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
)

// fwd_ccmix: the closed-loop forwarding path. An 8×8 10 Gbps dumbbell on
// one engine; five entities with ingress AQs at S1 weighted 1:1:2:2:2, each
// running a different congestion control, one of them an unreactive
// line-rate UDP blaster. Every layer of the packet lane is busy and the
// ACK/pacing interleave defeats burst draining; fluid and service idle.
const (
	fwdHosts   = 8
	fwdHorizon = 250 * sim.Millisecond
	fwdJitter  = 500 * sim.Microsecond // flow starts are drawn from fwdStartFloor + [0, fwdJitter)
	// fwdStartFloor is 64³ ns, the span of the timer wheel's three finest
	// levels. Starts past it file every seed's start timers on the same
	// level; a level allocates its 4.8 KB slot arena on first use, 7 % of
	// this workload's set-up heap, and built_heap_mb must not depend on
	// the seed (see udpStartFloor).
	fwdStartFloor = 262144 * sim.Nanosecond
)

// fwdEntity is one traffic entity of the mix.
type fwdEntity struct {
	alg    string // cc.ByName name, or "udp"
	flows  int
	weight float64
	aqType core.CCType
}

var fwdEntities = []fwdEntity{
	{"cubic", 2, 1, core.DropType},
	{"dctcp", 8, 1, core.ECNType},
	{"bbr", 4, 2, core.DropType},
	{"swift", 4, 2, core.DelayType},
	{"udp", 1, 2, core.DropType},
}

type fwdState struct {
	eng     *sim.Engine
	d       *topo.Dumbbell
	aqs     []*core.AQ
	senders [][]*transport.Sender // per entity
	udp     *transport.UDPSender
}

// payload returns each entity's delivered payload bytes so far.
func (st *fwdState) payload() []float64 {
	out := make([]float64, len(fwdEntities))
	for e, ss := range st.senders {
		for _, s := range ss {
			out[e] += float64(s.AckedBytes())
		}
	}
	out[len(out)-1] = float64(st.udp.Sink().RxPackets) * packet.DefaultMSS
	return out
}

func fwdIterate(seed uint64, rec *recorder, hp *heapProbe) iterOut {
	var out iterOut
	rng := sim.NewRand(seed)
	latHist.reset()
	measuring := false

	watch := startWatch()
	id := rec.begin("setup.topo")
	eng := sim.NewEngine()
	spec := topo.DefaultSim()
	d := topo.NewDumbbell(eng, fwdHosts, fwdHosts, spec, spec)
	rec.end(id)
	watch.lap()

	id = rec.begin("setup.deploy")
	st := &fwdState{eng: eng, d: d, senders: make([][]*transport.Sender, len(fwdEntities))}
	var wsum float64
	for _, e := range fwdEntities {
		wsum += e.weight
	}
	for i, e := range fwdEntities {
		rate := units.BitRate(float64(spec.Rate) * e.weight / wsum)
		st.aqs = append(st.aqs, d.S1.Ingress.Deploy(core.Config{ID: packet.AQID(i + 1), Rate: rate, CC: e.aqType}))
	}
	rec.end(id)
	watch.lap()

	id = rec.begin("setup.attach")
	// Hosts 0..6 carry the TCP flows round-robin; the blaster has host 7
	// to itself, so its own uplink is never the bottleneck for a TCP flow.
	slot := 0
	for i, e := range fwdEntities {
		opt := transport.Options{IngressAQ: packet.AQID(i + 1), EcnCapable: e.alg == "dctcp"}
		if e.alg == "udp" {
			st.udp = transport.NewUDPSender(d.Left[fwdHosts-1], d.Right[fwdHosts-1], spec.Rate, opt)
			st.udp.Start(fwdStartFloor + sim.Time(rng.Intn(int(fwdJitter))))
			continue
		}
		mk := cc.ByName(e.alg)
		for f := 0; f < e.flows; f++ {
			src := d.Left[slot%(fwdHosts-1)]
			dst := d.Right[(slot*3+1)%(fwdHosts-1)]
			slot++
			s := transport.NewSender(src, dst, 0, mk(), opt)
			s.Start(fwdStartFloor + sim.Time(rng.Intn(int(fwdJitter))))
			st.senders[i] = append(st.senders[i], s)
		}
	}
	// ACK round trips as the sending hosts see them, second half only.
	for _, h := range d.Left {
		h.RxHook = func(p *packet.Packet) {
			if measuring && p.Kind == packet.Ack {
				latHist.add(eng.Now() - p.EchoSentAt)
			}
		}
	}
	rec.end(id)
	watch.lap()
	out.setup = watch.parts
	hp.atBuilt()

	var half []float64
	out.run, out.counts.PendingSum = runSliced(rec, fwdHorizon, eng.RunUntil, eng.Pending, func() {
		half = st.payload()
		measuring = true
	})
	hp.atRan()

	id = rec.begin("collect")
	full := st.payload()
	var total float64
	for e := range full {
		full[e] -= half[e]
		total += full[e]
	}
	for e, ent := range fwdEntities {
		granted := ent.weight / wsum
		if err := 100 * math.Abs(full[e]/total-granted) / granted; err > out.shareErr {
			out.shareErr = err
		}
	}
	out.latencyUs = latHist.p50us()

	c := &out.counts
	pipes := dumbbellPipes(d)
	countPipes(c, pipes)
	c.BneckEnq, c.BneckDrop, c.BneckMaxBytes = bneck(d.Bottleneck)
	countSwitch(c, d.S1)
	countSwitch(c, d.S2)
	for _, h := range append(append([]*topo.Host{}, d.Left...), d.Right...) {
		c.HostRx += h.Stats().RxPackets
	}
	for _, aq := range st.aqs {
		s := aq.Stats()
		c.AQArrived += s.Arrived
		c.AQDrops += s.Drops
		c.AQMarks += s.Marks
	}
	c.AcksByAlg = make(map[string]uint64)
	dg := newDigester()
	for e, ss := range st.senders {
		for _, s := range ss {
			c.TCPData += s.SentPackets
			c.TCPRetx += s.Retransmits
			c.TCPTimeouts += s.Timeouts
			c.TCPFastRecovers += s.FastRecovers
			c.AcksByAlg[fwdEntities[e].alg] += s.Receiver().RxData
			c.PoolGets += s.SentPackets + s.Receiver().RxData
			c.NewSenders++
			dg.u64(uint64(s.AckedBytes()), s.SentPackets, s.Retransmits)
		}
	}
	c.UDPSent = st.udp.SentPackets
	c.PoolGets += c.UDPSent
	es := eng.Stats()
	c.Events, c.Inlined = es.Processed, es.Inlined
	out.work = c.PktHops
	dg.u64(c.Events, c.Inlined, c.PendingSum, c.PktHops, c.FifoEnq, c.FifoDrop, c.SwitchRx, c.SwitchAQDrops,
		c.HostRx, c.Lookups, c.AQArrived, c.AQDrops, c.AQMarks, c.UDPSent, st.udp.Sink().RxPackets)
	dg.f64(out.shareErr, out.latencyUs)
	out.digest = dg.sum()

	// Quiesce, then every packet must be accounted for: stop the sources,
	// let what is in flight drain, and balance the books hop by hop.
	for _, ss := range st.senders {
		for _, s := range ss {
			s.Stop()
		}
	}
	st.udp.Stop()
	eng.Run()
	out.violations = append(out.violations, balanceSwitch("S1", d.S1, fwdHosts+1, append(uplinks(d.Left), d.ReverseTrunk))...)
	out.violations = append(out.violations, balanceSwitch("S2", d.S2, fwdHosts+1, append(uplinks(d.Right), d.Bottleneck))...)
	out.violations = append(out.violations, balancePipes(pipes)...)
	rec.end(id)
	return out
}

// dumbbellPipes lists every pipe of a dumbbell: both trunks, every host
// uplink and every switch-to-host downlink.
func dumbbellPipes(d *topo.Dumbbell) []*topo.Pipe {
	pipes := []*topo.Pipe{d.Bottleneck, d.ReverseTrunk}
	pipes = append(pipes, uplinks(d.Left)...)
	pipes = append(pipes, uplinks(d.Right)...)
	for i := range d.Left {
		pipes = append(pipes, d.S1.Port(1+i))
	}
	for i := range d.Right {
		pipes = append(pipes, d.S2.Port(1+i))
	}
	return pipes
}

func uplinks(hs []*topo.Host) []*topo.Pipe {
	out := make([]*topo.Pipe, len(hs))
	for i, h := range hs {
		out[i] = h.Uplink()
	}
	return out
}

// countPipes folds the wire and FIFO counters of pipes into c.
func countPipes(c *opCounts, pipes []*topo.Pipe) {
	for _, p := range pipes {
		c.PktHops += p.Stats().TxPackets
		q := p.Queue().Stats()
		c.FifoEnq += q.Enqueued
		c.FifoDrop += q.Dropped
	}
}

func bneck(p *topo.Pipe) (enq, drop uint64, maxBytes int) {
	q := p.Queue().Stats()
	return q.Enqueued, q.Dropped, q.MaxBytes
}

// countSwitch folds a switch's forwarding and pipeline-table counters in.
func countSwitch(c *opCounts, sw *topo.Switch) {
	s := sw.Stats()
	c.SwitchRx += s.RxPackets
	c.SwitchAQDrops += s.AQDrops
	c.SwitchAQBypassed += s.AQBypassed
	for _, t := range []*core.Table{sw.Ingress, sw.Egress} {
		ts := t.Stats()
		c.Lookups += ts.Lookups
		c.Misses += ts.Misses
	}
}

// balanceSwitch checks, on a drained network, that the switch received
// exactly what its feeding pipes put on the wire and that everything it
// received was AQ-dropped, unroutable, tail-dropped at an output FIFO or
// enqueued there: offered = delivered + dropped, nothing left queued.
func balanceSwitch(name string, sw *topo.Switch, ports int, in []*topo.Pipe) []string {
	var bad []string
	s := sw.Stats()
	var fed uint64
	for _, p := range in {
		fed += p.Stats().TxPackets
	}
	if fed != s.RxPackets {
		bad = append(bad, fmt.Sprintf("%s: fed %d packets, received %d", name, fed, s.RxPackets))
	}
	var out uint64
	for i := 0; i < ports; i++ {
		q := sw.Port(i).Queue().Stats()
		out += q.Enqueued + q.Dropped
	}
	if want := s.RxPackets - s.AQDrops - s.RouteMiss; out != want {
		bad = append(bad, fmt.Sprintf("%s: forwarded %d packets to its ports, expected %d", name, out, want))
	}
	return bad
}

// balancePipes checks every pipe on a drained network: all it accepted is
// on the wire and its FIFO is empty.
func balancePipes(pipes []*topo.Pipe) []string {
	var bad []string
	for i, p := range pipes {
		ps, q := p.Stats(), p.Queue().Stats()
		if q.Enqueued != ps.TxPackets || ps.Backlog != 0 || q.Packets != 0 {
			bad = append(bad, fmt.Sprintf("pipe %d: enqueued %d, sent %d, backlog %d B / %d pkts",
				i, q.Enqueued, ps.TxPackets, ps.Backlog, q.Packets))
		}
	}
	return bad
}
