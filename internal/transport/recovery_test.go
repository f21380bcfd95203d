package transport

import (
	"testing"
	"testing/quick"

	"aqueue/internal/cc"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/units"
)

// lossyFilter drops data packets pseudo-randomly at the given rate,
// injecting loss upstream of the whole network.
func lossyFilter(h *topo.Host, rate float64, seed uint64) *uint64 {
	r := sim.NewRand(seed)
	var dropped uint64
	h.Filter = func(p *packet.Packet) bool {
		if p.Kind == packet.Data && r.Float64() < rate {
			dropped++
			return true
		}
		return false
	}
	return &dropped
}

func TestRecoveryUnderRandomLoss(t *testing.T) {
	// 10% random loss: the flow must still deliver the exact byte stream.
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, 1, 1, topo.DefaultSim(), topo.DefaultSim())
	dropped := lossyFilter(d.Left[0], 0.10, 42)
	s := NewSender(d.Left[0], d.Right[0], 500_000, cc.NewNewReno(), Options{})
	s.Start(0)
	eng.RunUntil(5 * sim.Second)
	if !s.Done() {
		t.Fatalf("flow did not complete under 10%% loss (acked %d)", s.AckedBytes())
	}
	if s.Receiver().Delivered() != 500_000 {
		t.Fatalf("delivered %d bytes, want 500000", s.Receiver().Delivered())
	}
	if *dropped == 0 {
		t.Fatal("loss injector never fired")
	}
	if s.Retransmits == 0 {
		t.Fatal("no retransmissions under loss")
	}
}

func TestRecoveryPropertyAnyLossRate(t *testing.T) {
	// Property: for any loss rate in [0, 35%] and any seed, a small flow
	// completes with exact delivery.
	f := func(seed uint16, ratePct uint8) bool {
		rate := float64(ratePct%36) / 100
		eng := sim.NewEngine()
		d := topo.NewDumbbell(eng, 1, 1, topo.DefaultSim(), topo.DefaultSim())
		lossyFilter(d.Left[0], rate, uint64(seed)+1)
		s := NewSender(d.Left[0], d.Right[0], 60_000, cc.NewNewReno(), Options{})
		s.Start(0)
		eng.RunUntil(20 * sim.Second)
		return s.Done() && s.Receiver().Delivered() == 60_000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBlackholeRecoversViaRTO(t *testing.T) {
	// Total blackhole for the first 5 ms, then the path heals: the sender
	// must survive on its RTO with exponential backoff and finish.
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, 1, 1, topo.DefaultSim(), topo.DefaultSim())
	blackhole := true
	d.Left[0].Filter = func(p *packet.Packet) bool {
		return blackhole && p.Kind == packet.Data
	}
	eng.At(5*sim.Millisecond, func() { blackhole = false })
	s := NewSender(d.Left[0], d.Right[0], 50_000, cc.NewCubic(), Options{})
	s.Start(0)
	eng.RunUntil(2 * sim.Second)
	if !s.Done() {
		t.Fatalf("flow did not recover from blackhole (timeouts=%d)", s.Timeouts)
	}
	if s.Timeouts == 0 {
		t.Fatal("expected RTO firings during the blackhole")
	}
}

func TestStopHaltsLongFlow(t *testing.T) {
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, 1, 1, topo.DefaultSim(), topo.DefaultSim())
	s := NewSender(d.Left[0], d.Right[0], 0, cc.NewCubic(), Options{})
	s.Start(0)
	eng.RunUntil(10 * sim.Millisecond)
	s.Stop()
	sent := s.SentPackets
	eng.RunUntil(30 * sim.Millisecond)
	if s.SentPackets != sent {
		t.Fatal("sender kept transmitting after Stop")
	}
}

func TestReceiveWindowBoundsOutstanding(t *testing.T) {
	// A blackholed ACK path means cumAck never advances; the sender must
	// stop at the receive window, not run away.
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, 1, 1, topo.DefaultSim(), topo.DefaultSim())
	d.Right[0].Filter = func(p *packet.Packet) bool { return p.Kind == packet.Ack }
	s := NewSender(d.Left[0], d.Right[0], 0, cc.NewCubic(), Options{})
	s.Start(0)
	eng.RunUntil(300 * sim.Millisecond)
	if s.nextSeq > rwndBytes {
		t.Fatalf("sender ran %d bytes past a dead cumAck (rwnd %d)", s.nextSeq, rwndBytes)
	}
}

func TestSwiftFractionalWindowPacing(t *testing.T) {
	// Force Swift into cwnd < 1 via an overloaded shared link, then verify
	// it keeps transmitting slowly (paced) instead of stalling.
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, 2, 2, topo.DefaultSim(), topo.DefaultSim())
	u := NewUDPSender(d.Left[0], d.Right[0], 10*units.Gbps, Options{})
	u.Start(0)
	s := NewSender(d.Left[1], d.Right[1], 0, cc.NewSwiftTarget(20*sim.Microsecond), Options{})
	s.Start(0)
	eng.RunUntil(200 * sim.Millisecond)
	if w := s.Algorithm().Cwnd(); w >= 1 {
		t.Fatalf("Swift cwnd = %v under UDP blast, want fractional", w)
	}
	if s.AckedBytes() == 0 {
		t.Fatal("paced Swift stalled entirely")
	}
	u.Stop()
	s.Stop()
}

func TestScoreboardPipeNeverNegative(t *testing.T) {
	// Property: under random loss the pipe estimate stays within sane
	// bounds for the whole run.
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, 1, 1, topo.DefaultSim(), topo.DefaultSim())
	lossyFilter(d.Left[0], 0.2, 7)
	s := NewSender(d.Left[0], d.Right[0], 300_000, cc.NewCubic(), Options{})
	s.Start(0)
	for ms := 1; ms < 3000 && !s.Done(); ms++ {
		eng.RunUntil(sim.Time(ms) * sim.Millisecond)
		if s.pipe < 0 {
			t.Fatalf("pipe went negative at %dms", ms)
		}
		if got := int64(s.pipe) * int64(s.opt.MSS); got > s.nextSeq-s.cumAck+int64(s.opt.MSS) {
			t.Fatalf("pipe %d exceeds outstanding bytes", s.pipe)
		}
	}
	if !s.Done() {
		t.Fatal("flow did not complete")
	}
}
