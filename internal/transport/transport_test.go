package transport

import (
	"testing"

	"aqueue/internal/cc"
	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/units"
)

// rig builds a 2x2 dumbbell with the default sim link spec.
func rig() (*sim.Engine, *topo.Dumbbell) {
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, 2, 2, topo.DefaultSim(), topo.DefaultSim())
	return eng, d
}

func TestFlowCompletes(t *testing.T) {
	eng, d := rig()
	var fct sim.Time
	s := NewSender(d.Left[0], d.Right[0], 100*1000, cc.NewNewReno(), Options{})
	s.OnComplete = func(now sim.Time) { fct = now }
	s.Start(0)
	eng.RunUntil(sim.Second)
	if !s.Done() {
		t.Fatal("flow did not complete")
	}
	if fct == 0 {
		t.Fatal("OnComplete not called")
	}
	if s.Receiver().Delivered() != 100*1000 {
		t.Fatalf("delivered %d, want 100000", s.Receiver().Delivered())
	}
	// 100 KB at 10 Gbps is 80 us of wire time; with slow start from 10
	// packets it should finish within a few ms.
	if fct > 5*sim.Millisecond {
		t.Fatalf("FCT = %v, unreasonably slow", fct)
	}
}

func TestSingleFlowSaturatesBottleneck(t *testing.T) {
	eng, d := rig()
	s := NewSender(d.Left[0], d.Right[0], 0, cc.NewCubic(), Options{})
	s.Start(0)
	const horizon = 100 * sim.Millisecond
	eng.RunUntil(horizon)
	gbps := float64(s.AckedBytes()) * 8 / horizon.Seconds() / 1e9
	if gbps < 8.5 {
		t.Fatalf("long CUBIC flow achieved %.2f Gbps on a 10 Gbps bottleneck", gbps)
	}
	s.Stop()
}

func TestLossRecoveryViaFastRetransmit(t *testing.T) {
	// Small physical queue at the bottleneck forces drops; the flow must
	// still deliver everything in order.
	eng := sim.NewEngine()
	spec := topo.DefaultSim()
	trunk := spec
	trunk.QueueLimit = 15 * 1000 // very shallow: guaranteed overflow
	d := topo.NewDumbbell(eng, 1, 1, spec, trunk)
	s := NewSender(d.Left[0], d.Right[0], 2*1000*1000, cc.NewNewReno(), Options{})
	s.Start(0)
	eng.RunUntil(2 * sim.Second)
	if !s.Done() {
		t.Fatalf("flow did not complete; acked %d", s.AckedBytes())
	}
	if s.Retransmits == 0 {
		t.Fatal("expected retransmissions on a shallow queue")
	}
	if s.FastRecovers == 0 {
		t.Fatal("expected fast-recovery episodes")
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	eng, d := rig()
	a := NewSender(d.Left[0], d.Right[0], 0, cc.NewNewReno(), Options{})
	b := NewSender(d.Left[1], d.Right[1], 0, cc.NewNewReno(), Options{})
	a.Start(0)
	b.Start(0)
	const horizon = 200 * sim.Millisecond
	eng.RunUntil(horizon)
	ga := float64(a.AckedBytes())
	gb := float64(b.AckedBytes())
	ratio := ga / gb
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("same-CC flows shared %0.2f:1, want near 1:1", ratio)
	}
	total := (ga + gb) * 8 / horizon.Seconds() / 1e9
	if total < 8.5 {
		t.Fatalf("aggregate %.2f Gbps, want near 10", total)
	}
	a.Stop()
	b.Stop()
}

func TestDCTCPKeepsQueueShort(t *testing.T) {
	eng, d := rig()
	s := NewSender(d.Left[0], d.Right[0], 0, cc.NewDCTCP(), Options{EcnCapable: true})
	s.Start(0)
	eng.RunUntil(100 * sim.Millisecond)
	gbps := float64(s.AckedBytes()) * 8 / 0.1 / 1e9
	if gbps < 8.5 {
		t.Fatalf("DCTCP achieved %.2f Gbps", gbps)
	}
	// With a single flow the edge uplink is the contended queue (it runs
	// at the same rate as the trunk); it should hover near the 65KB
	// marking threshold, well under the 400KB limit.
	up := d.Left[0].Uplink().Queue()
	// The one-time slow-start overshoot may spike past 3x the 65KB marking
	// threshold, but steady state must stay well below the 400KB limit.
	if up.MaxBytes > 250*1000 {
		t.Fatalf("DCTCP let the queue grow to %d bytes", up.MaxBytes)
	}
	if up.Marked == 0 {
		t.Fatal("no ECN marks recorded")
	}
	s.Stop()
}

func TestSwiftConvergesOnDelayTarget(t *testing.T) {
	eng, d := rig()
	s := NewSender(d.Left[0], d.Right[0], 0, cc.NewSwiftTarget(50*sim.Microsecond), Options{})
	s.Start(0)
	eng.RunUntil(100 * sim.Millisecond)
	gbps := float64(s.AckedBytes()) * 8 / 0.1 / 1e9
	if gbps < 8.0 {
		t.Fatalf("Swift achieved %.2f Gbps alone", gbps)
	}
	// 50us at 10 Gbps is 62.5KB of queue; it must not blow past that by
	// much.
	if max := d.Bottleneck.Queue().MaxBytes; max > 150*1000 {
		t.Fatalf("Swift queue reached %d bytes", max)
	}
	s.Stop()
}

func TestAQTagsAreStamped(t *testing.T) {
	eng, d := rig()
	seen := false
	d.Right[0].RxHook = func(p *packet.Packet) {
		if p.Kind == packet.Data {
			if p.IngressAQ != 7 || p.EgressAQ != 8 {
				t.Errorf("tags = (%d,%d), want (7,8)", p.IngressAQ, p.EgressAQ)
			}
			seen = true
		}
	}
	s := NewSender(d.Left[0], d.Right[0], 10000, cc.NewNewReno(),
		Options{IngressAQ: 7, EgressAQ: 8})
	s.Start(0)
	eng.RunUntil(50 * sim.Millisecond)
	if !seen {
		t.Fatal("no data packets observed")
	}
}

func TestAQRateLimitsDropBasedFlow(t *testing.T) {
	// Deploy a 2 Gbps drop-type AQ at the bottleneck switch ingress; a
	// long CUBIC flow must converge to ~2 Gbps even though the link is 10.
	eng, d := rig()
	d.S1.Ingress.Deploy(core.Config{ID: 1, Rate: 2 * units.Gbps})
	s := NewSender(d.Left[0], d.Right[0], 0, cc.NewCubic(), Options{IngressAQ: 1})
	s.Start(0)
	const horizon = 200 * sim.Millisecond
	eng.RunUntil(horizon)
	gbps := float64(s.AckedBytes()) * 8 / horizon.Seconds() / 1e9
	if gbps < 1.6 || gbps > 2.2 {
		t.Fatalf("AQ-limited CUBIC achieved %.2f Gbps, want ~2", gbps)
	}
	s.Stop()
}

func TestAQECNFeedbackForDCTCP(t *testing.T) {
	eng, d := rig()
	d.S1.Ingress.Deploy(core.Config{ID: 1, Rate: 3 * units.Gbps, CC: core.ECNType})
	s := NewSender(d.Left[0], d.Right[0], 0, cc.NewDCTCP(),
		Options{EcnCapable: true, IngressAQ: 1})
	s.Start(0)
	const horizon = 200 * sim.Millisecond
	eng.RunUntil(horizon)
	gbps := float64(s.AckedBytes()) * 8 / horizon.Seconds() / 1e9
	if gbps < 2.5 || gbps > 3.3 {
		t.Fatalf("AQ/ECN DCTCP achieved %.2f Gbps, want ~3", gbps)
	}
	st := d.S1.Ingress.Lookup(1).Stats()
	if st.Marks == 0 {
		t.Fatal("ECN-type AQ produced no marks")
	}
	if st.Drops > st.Arrived/10 {
		t.Fatalf("ECN-type AQ dropped too much: %d of %d", st.Drops, st.Arrived)
	}
	s.Stop()
}

func TestAQVirtualDelayFeedbackForSwift(t *testing.T) {
	eng, d := rig()
	d.S1.Ingress.Deploy(core.Config{ID: 1, Rate: 4 * units.Gbps, CC: core.DelayType})
	s := NewSender(d.Left[0], d.Right[0], 0, cc.NewSwiftTarget(50*sim.Microsecond),
		Options{IngressAQ: 1})
	s.Start(0)
	const horizon = 200 * sim.Millisecond
	eng.RunUntil(horizon)
	gbps := float64(s.AckedBytes()) * 8 / horizon.Seconds() / 1e9
	if gbps < 3.2 || gbps > 4.4 {
		t.Fatalf("AQ/delay Swift achieved %.2f Gbps, want ~4", gbps)
	}
	s.Stop()
}

func TestUDPSenderRate(t *testing.T) {
	eng, d := rig()
	u := NewUDPSender(d.Left[0], d.Right[0], 3*units.Gbps, Options{})
	u.Start(0)
	const horizon = 50 * sim.Millisecond
	eng.RunUntil(horizon)
	gbps := float64(u.Sink().RxBytes) * 8 / horizon.Seconds() / 1e9
	if gbps < 2.8 || gbps > 3.2 {
		t.Fatalf("UDP CBR delivered %.2f Gbps, want ~3", gbps)
	}
	u.Stop()
	before := u.SentPackets
	eng.RunUntil(horizon + 10*sim.Millisecond)
	if u.SentPackets != before {
		t.Fatal("UDP kept sending after Stop")
	}
}

func TestUDPStarvesTCPOnSharedPQ(t *testing.T) {
	// The motivating pathology of §2.1: a line-rate UDP blast through the
	// shared physical queue starves TCP.
	eng, d := rig()
	u := NewUDPSender(d.Left[0], d.Right[0], 10*units.Gbps, Options{})
	s := NewSender(d.Left[1], d.Right[1], 0, cc.NewCubic(), Options{})
	u.Start(0)
	s.Start(0)
	const horizon = 100 * sim.Millisecond
	eng.RunUntil(horizon)
	tcp := float64(s.AckedBytes()) * 8 / horizon.Seconds() / 1e9
	udp := float64(u.Sink().RxBytes) * 8 / horizon.Seconds() / 1e9
	if tcp > udp/4 {
		t.Fatalf("TCP got %.2f Gbps vs UDP %.2f — expected starvation", tcp, udp)
	}
	u.Stop()
	s.Stop()
}

// TestFlowIDsUnique: two hosts on one engine draw from the engine's one
// flow sequence, so their flows never share an ID.
func TestFlowIDsUnique(t *testing.T) {
	eng := sim.NewEngine()
	h0, h1 := topo.NewHost(eng, 0), topo.NewHost(eng, 1)
	a, b, c := h0.NextFlowID(), h1.NextFlowID(), h0.NextFlowID()
	if a == b || b == c || a == c {
		t.Fatalf("flow IDs collide: %d %d %d", a, b, c)
	}
}

// TestFlowIDsEngineScoped pins the determinism contract the parallel
// harness relies on: two engines allocate the same IDs independently.
func TestFlowIDsEngineScoped(t *testing.T) {
	h1, h2 := topo.NewHost(sim.NewEngine(), 0), topo.NewHost(sim.NewEngine(), 0)
	if h1.NextFlowID() != h2.NextFlowID() {
		t.Fatal("flow IDs are not engine-scoped")
	}
}

// TestEventsArePipeDeliveriesPlusTimerFires pins what the engine's events
// are on a forwarding run: one delivery per packet a pipe puts on the wire
// and one timer fire per UDP tick, nothing else. Four 4 Gbps senders of
// 64 B datagrams converge on one host of a 5-host star; one of them rides
// a 1 Gbps AQ, so packets die both on the AQ limit path and at the
// downlink's FIFO tail, and neither kind may cost an event. A new event
// class on the packet path breaks the identity.
func TestEventsArePipeDeliveriesPlusTimerFires(t *testing.T) {
	eng := sim.NewEngine()
	star := topo.NewStar(eng, 5, topo.DefaultSim())
	sink := star.Hosts[4]
	aq := star.SW.Ingress.Deploy(core.Config{ID: 1, Rate: 1 * units.Gbps})
	var senders []*UDPSender
	for i := 0; i < 4; i++ {
		opt := Options{MSS: 64}
		if i == 0 {
			opt.IngressAQ = 1
		}
		u := NewUDPSender(star.Hosts[i], sink, 4*units.Gbps, opt)
		u.Start(sim.Time(100 * i))
		senders = append(senders, u)
	}
	eng.RunUntil(2 * sim.Millisecond)
	for _, u := range senders {
		u.Stop()
	}
	eng.Run()

	var tx, ticks uint64
	for i, h := range star.Hosts {
		tx += h.Uplink().TxPackets + star.Down[i].TxPackets
	}
	for _, u := range senders {
		ticks += u.SentPackets
	}
	tail := star.Down[4].Queue().Stats().Dropped
	if aq.Stats().Drops == 0 || tail == 0 {
		t.Fatalf("AQ drops %d, tail drops %d: the run must exercise both", aq.Stats().Drops, tail)
	}
	if got := eng.Stats().Processed; got != tx+ticks {
		t.Fatalf("engine fired %d events, want %d pipe deliveries + %d UDP ticks = %d",
			got, tx, ticks, tx+ticks)
	}
	t.Logf("%d events = %d deliveries + %d ticks; %d AQ drops, %d tail drops",
		eng.Stats().Processed, tx, ticks, aq.Stats().Drops, tail)
}
