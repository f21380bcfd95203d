package topo

import (
	"testing"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

type collector struct {
	pkts  []*packet.Packet
	times []sim.Time
	eng   *sim.Engine
}

func (c *collector) Receive(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.times = append(c.times, c.eng.Now())
}

func TestPipeSerializationAndPropagation(t *testing.T) {
	eng := sim.NewEngine()
	c := &collector{eng: eng}
	// 10 Gbps, 10us prop: a 1040B packet serializes in 832ns.
	p := NewPipe(eng, 10*units.Gbps, 10*sim.Microsecond, 0, 0, c)
	pkt := packet.NewData(0, 1, 1, 0, 1000)
	p.Send(pkt)
	eng.Run()
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(c.pkts))
	}
	want := sim.Time(832 + 10000)
	if c.times[0] != want {
		t.Fatalf("delivered at %v, want %v", c.times[0], want)
	}
}

func TestPipeBackToBackSpacing(t *testing.T) {
	eng := sim.NewEngine()
	c := &collector{eng: eng}
	p := NewPipe(eng, 10*units.Gbps, 0, 0, 0, c)
	for i := 0; i < 3; i++ {
		p.Send(packet.NewData(0, 1, 1, int64(i*1000), 1000))
	}
	eng.Run()
	if len(c.pkts) != 3 {
		t.Fatalf("delivered %d, want 3", len(c.pkts))
	}
	// Each 1040B packet takes 832ns on the wire; deliveries are spaced by
	// exactly the serialization time.
	for i := 1; i < 3; i++ {
		if got := c.times[i] - c.times[i-1]; got != 832 {
			t.Fatalf("spacing %d = %v, want 832ns", i, got)
		}
	}
	if p.TxPackets != 3 || p.TxBytes != 3*1040 {
		t.Fatalf("tx counters = %d pkts / %d bytes", p.TxPackets, p.TxBytes)
	}
}

// TestPipeDeliveryChain pins the delivery chain against arithmetic: 40 MSS
// packets sent at t=0 on an idle 10 Gbps, 5 us pipe serialize back to back
// at 832 ns each, so packet k arrives at exactly (k+1)*832 + 5000 ns. Only
// the head delivery holds an engine event — all 40 have their record in
// the pipe's flights, the head's being the armed one — and each delivery
// is one event. Stepped in 1 us RunUntil calls, as the service steps its
// windows, the chain crosses every deadline without moving an instant.
func TestPipeDeliveryChain(t *testing.T) {
	const pkts = 40
	train := func(t *testing.T, eng *sim.Engine, run func()) {
		c := &collector{eng: eng}
		p := NewPipe(eng, 10*units.Gbps, 5*sim.Microsecond, 0, 0, c)
		for i := 0; i < pkts; i++ {
			p.Send(packet.NewData(0, 1, 1, int64(i)*packet.DefaultMSS, packet.DefaultMSS))
		}
		if got := eng.Pending(); got != 1 {
			t.Fatalf("Pending() = %d after %d sends, want 1 (the armed head)", got, pkts)
		}
		if got := p.flights.Len(); got != pkts {
			t.Fatalf("flights holds %d, want %d", got, pkts)
		}
		run()
		if len(c.pkts) != pkts {
			t.Fatalf("delivered %d packets, want %d", len(c.pkts), pkts)
		}
		for k, pkt := range c.pkts {
			at, seq := sim.Time((k+1)*832+5000), int64(k)*packet.DefaultMSS
			if c.times[k] != at || pkt.Seq != seq {
				t.Fatalf("delivery %d is seq %d at %v, want seq %d at %v", k, pkt.Seq, c.times[k], seq, at)
			}
		}
		if got := eng.Stats().Processed; got != pkts {
			t.Fatalf("Processed = %d, want %d (one event per delivery)", got, pkts)
		}
	}

	t.Run("engine", func(t *testing.T) {
		eng := sim.NewEngine()
		train(t, eng, eng.Run)
	})

	t.Run("cluster-windows", func(t *testing.T) {
		eng := sim.NewEngine()
		train(t, eng, func() {
			for w := sim.Time(1); w <= 100; w++ {
				eng.RunUntil(w * sim.Microsecond)
			}
		})
	})
}

func TestPipeTailDropWhenFull(t *testing.T) {
	eng := sim.NewEngine()
	c := &collector{eng: eng}
	p := NewPipe(eng, 1*units.Mbps, 0, 2100, 0, c) // tiny slow link
	for i := 0; i < 5; i++ {
		p.Send(packet.NewData(0, 1, 1, int64(i*1000), 1000))
	}
	if p.Queue().Dropped == 0 {
		t.Fatal("no tail drops on overfull queue")
	}
	eng.Run()
	if len(c.pkts) >= 5 {
		t.Fatalf("delivered %d, want fewer than 5", len(c.pkts))
	}
}

func TestSwitchRoutesByDestination(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, "t")
	c1 := &collector{eng: eng}
	c2 := &collector{eng: eng}
	p1 := sw.AddPort(NewPipe(eng, units.Gbps, 0, 0, 0, c1))
	p2 := sw.AddPort(NewPipe(eng, units.Gbps, 0, 0, 0, c2))
	sw.AddRoute(5, p1)
	sw.AddRoute(6, p2)
	sw.Receive(packet.NewData(0, 5, 1, 0, 100))
	sw.Receive(packet.NewData(0, 6, 2, 0, 100))
	sw.Receive(packet.NewData(0, 7, 3, 0, 100)) // no route
	eng.Run()
	if len(c1.pkts) != 1 || len(c2.pkts) != 1 {
		t.Fatalf("routing failed: %d/%d", len(c1.pkts), len(c2.pkts))
	}
	if sw.RouteMiss != 1 {
		t.Fatalf("RouteMiss = %d, want 1", sw.RouteMiss)
	}
}

func TestSwitchAQPipelines(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, "t")
	c := &collector{eng: eng}
	port := sw.AddPort(NewPipe(eng, units.Gbps, 0, 0, 0, c))
	sw.AddRoute(5, port)
	// An ingress AQ with a tiny limit drops the second back-to-back packet;
	// an egress ECN AQ with a one-byte threshold marks the third.
	sw.Ingress.Deploy(core.Config{ID: 9, Rate: units.Kbps, Limit: 1200})
	sw.Egress.Deploy(core.Config{ID: 3, Rate: units.Gbps, CC: core.ECNType, ECNThreshold: 1})
	type call struct {
		t    *core.Table
		v    core.Verdict
		size int
	}
	var calls []call
	sw.AQHook = func(t *core.Table, v core.Verdict, p *packet.Packet) {
		calls = append(calls, call{t, v, p.Size}) // a dropped packet is not yet released
	}
	a := packet.NewData(0, 5, 1, 0, 1000)
	a.IngressAQ = 9
	b := packet.NewData(0, 5, 1, 1000, 1000)
	b.IngressAQ = 9
	m := packet.NewData(0, 5, 2, 0, 1000)
	m.EgressAQ, m.EcnCapable = 3, true
	want := []call{{sw.Ingress, core.Drop, b.Size}, {sw.Egress, core.Mark, m.Size}}
	sw.Receive(a)
	sw.Receive(b)
	sw.Receive(m)
	eng.Run()
	if len(c.pkts) != 2 || !c.pkts[1].CE {
		t.Fatalf("delivered %d, want 2 (AQ drop), the second CE-marked", len(c.pkts))
	}
	if sw.AQDrops != 1 {
		t.Fatalf("AQDrops = %d, want 1", sw.AQDrops)
	}
	if len(calls) != len(want) || calls[0] != want[0] || calls[1] != want[1] {
		t.Fatalf("AQHook saw %+v, want %+v", calls, want)
	}
}

func TestSwitchWorkConservingBypass(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, "t")
	c := &collector{eng: eng}
	port := sw.AddPort(NewPipe(eng, units.Gbps, 0, 0, 0, c))
	sw.AddRoute(5, port)
	sw.WorkConserving = true
	sw.Ingress.Deploy(core.Config{ID: 9, Rate: units.Kbps, Limit: 100})
	// Empty physical queue: even a grossly over-limit entity passes.
	p := packet.NewData(0, 5, 1, 0, 1000)
	p.IngressAQ = 9
	sw.Receive(p)
	if sw.AQBypassed != 1 || sw.AQDrops != 0 {
		t.Fatalf("bypass not taken: bypassed=%d drops=%d", sw.AQBypassed, sw.AQDrops)
	}
	eng.Run()
}

func TestDumbbellEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDumbbell(eng, 2, 2, DefaultSim(), DefaultSim())
	if len(d.Left) != 2 || len(d.Right) != 2 {
		t.Fatal("wrong host counts")
	}
	// Left host 0 sends to right host 2 across the bottleneck.
	pkt := packet.NewData(0, 2, 1, 0, 1000)
	d.Left[0].Send(pkt)
	eng.Run()
	if d.Right[0].RxPackets != 1 {
		t.Fatalf("right host got %d packets, want 1", d.Right[0].RxPackets)
	}
	if d.Bottleneck.TxPackets != 1 {
		t.Fatalf("bottleneck carried %d packets, want 1", d.Bottleneck.TxPackets)
	}
	// Reverse direction crosses the reverse trunk.
	d.Right[1].Send(packet.NewData(3, 1, 2, 0, 1000))
	eng.Run()
	if d.Left[1].RxPackets != 1 {
		t.Fatal("reverse delivery failed")
	}
	if d.ReverseTrunk.TxPackets != 1 {
		t.Fatal("reverse trunk not used")
	}
	if d.Host(0) != d.Left[0] || d.Host(3) != d.Right[1] {
		t.Fatal("Host() indexing wrong")
	}
}

func TestStarDelivery(t *testing.T) {
	eng := sim.NewEngine()
	s := NewStar(eng, 4, DefaultTestbed())
	s.Hosts[1].Send(packet.NewData(1, 3, 1, 0, 1000))
	eng.Run()
	if s.Hosts[3].RxPackets != 1 {
		t.Fatal("star delivery failed")
	}
	if s.Down[3].TxPackets != 1 {
		t.Fatal("downlink pipe not used")
	}
}

func TestHostSendFilter(t *testing.T) {
	eng := sim.NewEngine()
	s := NewStar(eng, 2, DefaultTestbed())
	var intercepted []*packet.Packet
	sent := 0
	s.Hosts[0].TxHook = func(*packet.Packet) { sent++ }
	s.Hosts[0].Filter = func(p *packet.Packet) bool {
		if p.Kind == packet.Data {
			intercepted = append(intercepted, p)
			return true
		}
		return false
	}
	s.Hosts[0].Send(packet.NewData(0, 1, 1, 0, 1000))
	s.Hosts[0].Send(packet.NewAck(0, 1, 1, 0))
	eng.Run()
	if len(intercepted) != 1 || sent != 2 {
		t.Fatalf("filter consumed %d, want 1; TxHook saw %d sends, want both", len(intercepted), sent)
	}
	if s.Hosts[1].RxPackets != 1 {
		t.Fatalf("host 1 got %d packets, want just the ACK", s.Hosts[1].RxPackets)
	}
	// Transmit bypasses the filter.
	s.Hosts[0].Transmit(intercepted[0])
	eng.Run()
	if s.Hosts[1].RxPackets != 2 || sent != 2 {
		t.Fatal("Transmit did not bypass the filter and the send hook")
	}
}

func TestHostOrphanCounting(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1)
	h.Receive(packet.NewData(0, 1, 99, 0, 100))
	if h.Orphans != 1 {
		t.Fatalf("Orphans = %d, want 1", h.Orphans)
	}
}

func TestPipeDelayHook(t *testing.T) {
	eng := sim.NewEngine()
	c := &collector{eng: eng}
	p := NewPipe(eng, 10*units.Gbps, 0, 0, 0, c)
	var delays []sim.Time
	p.DelayHook = func(d sim.Time, _ *packet.Packet) { delays = append(delays, d) }
	p.Send(packet.NewData(0, 1, 1, 0, 1000))
	p.Send(packet.NewData(0, 1, 1, 1000, 1000))
	eng.Run()
	if len(delays) != 2 {
		t.Fatalf("hook saw %d packets", len(delays))
	}
	if delays[0] != 0 {
		t.Fatalf("first packet queued %v, want 0", delays[0])
	}
	if delays[1] != 832 { // waits for the first packet's serialization
		t.Fatalf("second packet queued %v, want 832ns", delays[1])
	}
}

// TestZeroRatePipeIsInstant states what a pipe of rate 0 does to packets
// today (ROADMAP 1(d)): a zero rate's serialization time is 0
// (TransmitNanos returns 0 for it), so the link behaves as infinitely
// fast: a packet arrives exactly one propagation delay after it is sent,
// unqueued. A burst sent at once is not queued either; its packets follow
// the first 1 ns apart, because a pipe never plans two deliveries for the
// same instant.
func TestZeroRatePipeIsInstant(t *testing.T) {
	const delay = 7 * sim.Microsecond
	eng := sim.NewEngine()
	c := &collector{eng: eng}
	p := NewPipe(eng, 0, delay, 0, 0, c)
	for i := 0; i < 5; i++ {
		p.Send(packet.NewData(0, 1, 1, int64(i), 1460))
	}
	eng.Run()
	if len(c.pkts) != 5 {
		t.Fatalf("%d packets arrived, want 5", len(c.pkts))
	}
	for i, at := range c.times {
		if want := delay + sim.Time(i); at != want || c.pkts[i].QueueDelay != 0 {
			t.Fatalf("packet %d arrived at %v after %v queued, want at %v, unqueued", i, at, c.pkts[i].QueueDelay, want)
		}
	}
}
