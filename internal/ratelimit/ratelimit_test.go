package ratelimit

import (
	"testing"

	"aqueue/internal/cc"
	"aqueue/internal/control"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
)

func TestTokenBucketRate(t *testing.T) {
	eng := sim.NewEngine()
	var released uint64
	tb := NewTokenBucket(eng, 1*units.Gbps, 0, func(p *packet.Packet) {
		released += uint64(p.Size)
	})
	// Offer 2 Gbps for 50 ms: a 1040B packet every 4160 ns.
	var next func()
	n := 0
	next = func() {
		if n >= 24000 {
			return
		}
		n++
		tb.Submit(packet.NewData(0, 1, 1, 0, 1000))
		eng.After(4160, next)
	}
	eng.After(0, next)
	eng.RunUntil(100 * sim.Millisecond)
	gbps := stats.RateGbps(released, 100*sim.Millisecond)
	if gbps < 0.93 || gbps > 1.05 {
		t.Fatalf("released %.3f Gbps, want ~1", gbps)
	}
	if tb.Dropped == 0 {
		t.Fatal("sustained 2x overload should overflow the shaper queue")
	}
}

func TestTokenBucketBurstThenIdlePassesImmediately(t *testing.T) {
	eng := sim.NewEngine()
	var out []*packet.Packet
	tb := NewTokenBucket(eng, 1*units.Gbps, 5000, func(p *packet.Packet) { out = append(out, p) })
	tb.Submit(packet.NewData(0, 1, 1, 0, 1000))
	if len(out) != 1 {
		t.Fatal("first packet within burst should pass immediately")
	}
	eng.Run()
}

func TestTokenBucketSetRate(t *testing.T) {
	eng := sim.NewEngine()
	var released int
	tb := NewTokenBucket(eng, 1*units.Mbps, 1100, func(p *packet.Packet) { released++ })
	for i := 0; i < 10; i++ {
		tb.Submit(packet.NewData(0, 1, 1, 0, 1000))
	}
	eng.RunUntil(sim.Millisecond)
	low := released
	tb.SetRate(1 * units.Gbps)
	eng.RunUntil(2 * sim.Millisecond)
	if released <= low {
		t.Fatalf("rate increase had no effect (%d -> %d)", low, released)
	}
	if tb.Rate() != 1*units.Gbps {
		t.Fatalf("Rate() = %v", tb.Rate())
	}
}

func TestPRLCapsTCPFlow(t *testing.T) {
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, 1, 1, topo.DefaultSim(), topo.DefaultSim())
	AttachPRL(d.Left[0], 2*units.Gbps)
	s := transport.NewSender(d.Left[0], d.Right[0], 0, cc.NewCubic(), transport.Options{})
	s.Start(0)
	const horizon = 100 * sim.Millisecond
	eng.RunUntil(horizon)
	gbps := stats.RateGbps(uint64(s.AckedBytes()), horizon)
	if gbps < 1.6 || gbps > 2.1 {
		t.Fatalf("PRL-shaped CUBIC achieved %.2f Gbps, want ~2", gbps)
	}
	s.Stop()
}

func TestPRLDoesNotShapeAcks(t *testing.T) {
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, 1, 1, topo.DefaultSim(), topo.DefaultSim())
	// Receiver side has a tiny PRL; ACKs must still flow at full speed.
	AttachPRL(d.Right[0], 1*units.Mbps)
	s := transport.NewSender(d.Left[0], d.Right[0], 1000*1000, cc.NewCubic(), transport.Options{})
	s.Start(0)
	eng.RunUntil(100 * sim.Millisecond)
	if !s.Done() {
		t.Fatal("flow blocked — receiver PRL must not shape ACKs")
	}
}

func TestWaterfill(t *testing.T) {
	got := control.Waterfill(10, []float64{2, 4, 100}, nil)
	if got[0] != 2 || got[1] != 4 || got[2] != 4 {
		t.Fatalf("waterfill = %v, want [2 4 4]", got)
	}
	got = control.Waterfill(9, []float64{100, 100, 100}, nil)
	for _, v := range got {
		if v != 3 {
			t.Fatalf("equal demands: %v", got)
		}
	}
	if got := control.Waterfill(10, nil, nil); len(got) != 0 {
		t.Fatal("empty demands")
	}
	// Total never exceeds capacity.
	got = control.Waterfill(5, []float64{10, 1, 3}, nil)
	var sum float64
	for _, v := range got {
		sum += v
	}
	if sum > 5.0001 {
		t.Fatalf("waterfill overallocated: %v", got)
	}
}

func TestDRLRampsUpBackloggedPair(t *testing.T) {
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, 2, 2, topo.DefaultSim(), topo.DefaultSim())
	drl := NewDRL(eng, 10*units.Gbps, DefaultInterval)
	for _, h := range d.Left {
		drl.AddVM(h, Profile{OutMax: 10 * units.Gbps, InMax: 10 * units.Gbps})
	}
	drl.Start()
	s := transport.NewSender(d.Left[0], d.Right[0], 0, cc.NewCubic(), transport.Options{})
	s.Start(0)
	const horizon = 300 * sim.Millisecond
	eng.RunUntil(horizon)
	// A single backlogged pair should ramp toward the bottleneck over the
	// adjustment rounds; over the whole run the average stays below line
	// rate (the lag), but the final allocation should be high.
	final := drl.PairRate(d.Left[0].ID(), d.Right[0].ID())
	if final < 8*units.Gbps {
		t.Fatalf("final pair allocation %v, want near capacity", final)
	}
	gbps := stats.RateGbps(uint64(s.AckedBytes()), horizon)
	if gbps < 5 {
		t.Fatalf("DRL flow achieved %.2f Gbps over %v", gbps, horizon)
	}
	if drl.Ticks < 15 {
		t.Fatalf("only %d adjustment rounds", drl.Ticks)
	}
	s.Stop()
}

func TestDRLRespectsInboundCap(t *testing.T) {
	// Three senders blast one receiver whose InMax is 5 Gbps; the sum of
	// pair allocations toward it must approach but not exceed the cap.
	eng := sim.NewEngine()
	st := topo.NewStar(eng, 4, topo.DefaultTestbed())
	drl := NewDRL(eng, 25*units.Gbps, DefaultInterval)
	for _, h := range st.Hosts {
		drl.AddVM(h, Profile{OutMax: 25 * units.Gbps, InMax: 5 * units.Gbps})
	}
	drl.Start()
	var senders []*transport.Sender
	for i := 1; i < 4; i++ {
		s := transport.NewSender(st.Hosts[i], st.Hosts[0], 0, cc.NewCubic(), transport.Options{})
		s.Start(0)
		senders = append(senders, s)
	}
	const horizon = 300 * sim.Millisecond
	eng.RunUntil(horizon)
	var sumAlloc units.BitRate
	var acked int64
	for i, s := range senders {
		sumAlloc += drl.PairRate(st.Hosts[i+1].ID(), st.Hosts[0].ID())
		acked += s.AckedBytes()
	}
	if sumAlloc > 5.6*units.Gbps {
		t.Fatalf("inbound allocations sum to %v, cap is 5Gbps", sumAlloc)
	}
	gbps := stats.RateGbps(uint64(acked), horizon)
	if gbps > 5.5 {
		t.Fatalf("aggregate inbound %.2f Gbps exceeds the 5 Gbps profile", gbps)
	}
	if gbps < 2.5 {
		t.Fatalf("aggregate inbound %.2f Gbps, severely under-utilized", gbps)
	}
	for _, s := range senders {
		s.Stop()
	}
}

func TestDRLIdlePairsReturnToFloor(t *testing.T) {
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, 1, 1, topo.DefaultSim(), topo.DefaultSim())
	drl := NewDRL(eng, 10*units.Gbps, 10*sim.Millisecond)
	drl.AddVM(d.Left[0], Profile{OutMax: 10 * units.Gbps, InMax: 10 * units.Gbps})
	drl.Start()
	s := transport.NewSender(d.Left[0], d.Right[0], 2*1000*1000, cc.NewCubic(), transport.Options{})
	s.Start(0)
	eng.RunUntil(500 * sim.Millisecond)
	if !s.Done() {
		t.Fatal("short flow did not finish")
	}
	if got := drl.PairRate(d.Left[0].ID(), d.Right[0].ID()); got != 50*units.Mbps {
		t.Fatalf("idle pair rate = %v, want the 50Mbps floor", got)
	}
}
