package main

import (
	"fmt"
	"math"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
)

// udp_fanin: the open-loop drop path at the smallest packet size. A 9-host
// star on one engine; eight constant-bit-rate senders of 64 B payloads at
// 2 Gbps each converge on one sink behind a 10 Gbps downlink. Four carry
// tags with 1 Gbps AQs deployed (half their packets die on the AQ limit
// path), four carry tags nothing is deployed under (table miss, pass
// through). 12 Gbps survives the AQs into a 10 Gbps pipe, so the FIFO tail
// drops as well. No TCP, no CC: only UDPSender ticks, long back-to-back
// runs, and every drop site's Release.
const (
	udpSenders = 8
	udpTagged  = 4
	udpPayload = 64
	udpHorizon = 64 * sim.Millisecond
	// udpStartFloor is 64² ns, the span of the timer wheel's two finest
	// levels.
	udpStartFloor = 4096 * sim.Nanosecond
)

var (
	udpRate   = 2 * units.Gbps
	udpAQRate = 1 * units.Gbps
)

type udpState struct {
	eng     *sim.Engine
	star    *topo.Star
	aqs     []*core.AQ
	senders []*transport.UDPSender
}

// admitted returns the bytes each AQ has let through so far. Every
// datagram is the same size, so the drop count converts exactly.
func (st *udpState) admitted() []float64 {
	out := make([]float64, len(st.aqs))
	for i, aq := range st.aqs {
		s := aq.Stats()
		out[i] = float64(s.ArrivedBytes) - float64(s.Drops)*(udpPayload+packet.HeaderBytes)
	}
	return out
}

func udpIterate(seed uint64, rec *recorder, hp *heapProbe) iterOut {
	var out iterOut
	rng := sim.NewRand(seed)
	latHist.reset()
	measuring := false

	watch := startWatch()
	id := rec.begin("setup.topo")
	eng := sim.NewEngine()
	star := topo.NewStar(eng, udpSenders+1, topo.DefaultSim())
	sink := star.Hosts[udpSenders]
	rec.end(id)
	watch.lap()

	id = rec.begin("setup.deploy")
	st := &udpState{eng: eng, star: star}
	for i := 0; i < udpTagged; i++ {
		st.aqs = append(st.aqs, star.SW.Ingress.Deploy(core.Config{ID: packet.AQID(i + 1), Rate: udpAQRate}))
	}
	rec.end(id)
	watch.lap()

	id = rec.begin("setup.attach")
	interval := int(udpRate.TransmitNanos(udpPayload + packet.HeaderBytes))
	for i := 0; i < udpSenders; i++ {
		// Senders udpTagged.. carry tags udpTagged+1.., which miss.
		u := transport.NewUDPSender(star.Hosts[i], sink, udpRate,
			transport.Options{MSS: udpPayload, IngressAQ: packet.AQID(i + 1)})
		// Offsets start past udpStartFloor so that every seed files its
		// tick timers on the same level of the timer wheel: a level
		// allocates its 4.8 KB slot arena on first use, an eighth of this
		// workload's whole set-up heap, and built_heap_mb must not depend
		// on the seed.
		u.Start(udpStartFloor + sim.Time(rng.Intn(64*interval)))
		st.senders = append(st.senders, u)
	}
	sink.RxHook = func(p *packet.Packet) {
		if measuring {
			latHist.add(eng.Now() - p.SentAt)
		}
	}
	rec.end(id)
	watch.lap()
	out.setup = watch.parts
	hp.atBuilt()

	var half []float64
	out.run, out.counts.PendingSum = runSliced(rec, udpHorizon, eng.RunUntil, eng.Pending, func() {
		half = st.admitted()
		measuring = true
	})
	hp.atRan()

	id = rec.begin("collect")
	full := st.admitted()
	window := float64(udpHorizon / 2)
	for i := range full {
		rate := (full[i] - half[i]) / window // bytes per ns
		granted := udpAQRate.BytesPerNano()
		if err := 100 * math.Abs(rate-granted) / granted; err > out.shareErr {
			out.shareErr = err
		}
	}
	out.latencyUs = latHist.p50us()

	c := &out.counts
	pipes := append(uplinks(star.Hosts), star.Down...)
	countPipes(c, pipes)
	c.BneckEnq, c.BneckDrop, c.BneckMaxBytes = bneck(star.Down[udpSenders])
	countSwitch(c, star.SW)
	for _, h := range star.Hosts {
		c.HostRx += h.Stats().RxPackets
	}
	dg := newDigester()
	for _, aq := range st.aqs {
		s := aq.Stats()
		c.AQArrived += s.Arrived
		c.AQDrops += s.Drops
		c.AQMarks += s.Marks
		dg.u64(s.Arrived, s.ArrivedBytes, s.Drops)
	}
	for _, u := range st.senders {
		c.UDPSent += u.SentPackets
		dg.u64(u.SentPackets, u.Sink().RxPackets)
	}
	c.PoolGets = c.UDPSent
	es := eng.Stats()
	c.Events, c.Inlined = es.Processed, es.Inlined
	out.work = c.PktHops
	dg.u64(c.Events, c.Inlined, c.PendingSum, c.PktHops, c.FifoEnq, c.FifoDrop, c.SwitchRx, c.SwitchAQDrops, c.HostRx, c.Lookups, c.Misses)
	dg.f64(out.shareErr, out.latencyUs)
	out.digest = dg.sum()

	for _, u := range st.senders {
		u.Stop()
	}
	eng.Run()
	out.violations = append(out.violations, balanceSwitch("SW", star.SW, udpSenders+1, uplinks(star.Hosts))...)
	out.violations = append(out.violations, balancePipes(pipes)...)
	var sent, got, aqDrops uint64
	for i, u := range st.senders {
		sent += u.SentPackets
		got += u.Sink().RxPackets
		if i < udpTagged {
			s := st.aqs[i].Stats()
			aqDrops += s.Drops
			if s.Arrived != u.SentPackets {
				out.violations = append(out.violations, fmt.Sprintf("AQ %d saw %d of %d datagrams", i+1, s.Arrived, u.SentPackets))
			}
		}
	}
	if tail := star.Down[udpSenders].Queue().Stats().Dropped; sent != got+aqDrops+tail {
		out.violations = append(out.violations,
			fmt.Sprintf("offered %d datagrams != delivered %d + AQ-dropped %d + tail-dropped %d", sent, got, aqDrops, tail))
	}
	rec.end(id)
	return out
}
