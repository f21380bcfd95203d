package trace_test

import (
	"testing"

	"aqueue/internal/cc"
	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/trace"
	"aqueue/internal/transport"
	"aqueue/internal/units"
)

// flowEvents returns the ring's retained events of one flow, oldest first.
func flowEvents(r *trace.Ring, flow packet.FlowID) []trace.Event {
	var out []trace.Event
	for _, e := range r.Events() {
		if e.Flow == flow {
			out = append(out, e)
		}
	}
	return out
}

// TestTraceAQDropsEndToEnd attaches the ring to a host's receive hook,
// reconstructs one flow's delivery timeline, and counts the AQ drops the
// flow met through the switches' counters: all at S1, none at S2.
func TestTraceAQDropsEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	spec := topo.DefaultSim()
	d := topo.NewDumbbell(eng, 1, 1, spec, spec)
	d.S1.Ingress.Deploy(core.Config{ID: 1, Rate: 1 * units.Gbps, Limit: 30_000})

	ring := trace.NewRing(4096)
	d.Right[0].RxHook = func(p *packet.Packet) {
		if p.Kind == packet.Data {
			ring.Record(trace.FromPacket(eng.Now(), trace.Recv, p, "host"))
		}
	}

	s := transport.NewSender(d.Left[0], d.Right[0], 0, cc.NewCubic(),
		transport.Options{IngressAQ: 1})
	s.Start(0)
	eng.RunUntil(30 * sim.Millisecond)
	s.Stop()

	events := flowEvents(ring, s.Flow())
	if len(events) == 0 {
		t.Fatal("no events traced")
	}
	recvs := 0
	last := sim.Time(-1)
	for _, e := range events {
		if e.At < last {
			t.Fatal("trace out of order")
		}
		last = e.At
		if e.Kind == trace.Recv {
			recvs++
		}
	}
	if elsewhere := d.S2.Stats().AQDrops; elsewhere != 0 {
		t.Fatalf("%d AQ drops located at S2", elsewhere)
	}
	if d.S1.Stats().AQDrops == 0 {
		t.Fatal("a 1 Gbps AQ under a CUBIC flow must drop")
	}
	if recvs == 0 {
		t.Fatal("no deliveries traced")
	}
}

// TestSinkWiringEndToEnd attaches one ring through its wiring — hosts for
// the send/recv endpoints, the switch's AQ hook for both pipelines — and
// checks every event class shows up exactly where it was emitted, and
// that each table's traced marks and drops are exactly its AQ's counters.
func TestSinkWiringEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	spec := topo.DefaultSim()
	d := topo.NewDumbbell(eng, 1, 1, spec, spec)
	ingress := d.S1.Ingress.Deploy(core.Config{
		ID: 1, Rate: 1 * units.Gbps, Limit: 30_000,
		CC: core.ECNType, ECNThreshold: 10_000,
	})
	egress := d.S1.Egress.Deploy(core.Config{ID: 2, Rate: 500 * units.Mbps, Limit: 20_000})

	ring := trace.NewRing(1 << 16)
	ring.Host(d.Left[0])
	ring.Host(d.Right[0])
	ring.Switch(d.S1)

	s := transport.NewSender(d.Left[0], d.Right[0], 0, cc.NewCubic(),
		transport.Options{IngressAQ: 1, EcnCapable: true})
	s.Start(0)
	se := transport.NewSender(d.Left[0], d.Right[0], 0, cc.NewCubic(),
		transport.Options{EgressAQ: 2})
	se.Start(0)
	eng.RunUntil(10 * sim.Millisecond)
	s.Stop()
	se.Stop()
	if uint64(ring.Len()) != ring.Recorded {
		t.Fatalf("ring wrapped: %d retained of %d", ring.Len(), ring.Recorded)
	}

	counts := map[trace.Kind]int{}
	// Both endpoints emit Send events for the one flow (data from host 0,
	// ACKs from host 1), so locations are checked per (kind, where) rather
	// than by whichever event happened to be traced last.
	at := map[trace.Kind]map[string]int{}
	for _, e := range flowEvents(ring, s.Flow()) {
		counts[e.Kind]++
		if at[e.Kind] == nil {
			at[e.Kind] = map[string]int{}
		}
		at[e.Kind][e.Where]++
	}
	if at[trace.Send]["host:0"] == 0 {
		t.Fatalf("sends: %v, want >0 at host:0", at[trace.Send])
	}
	if counts[trace.Recv] == 0 {
		t.Fatalf("no deliveries traced")
	}
	if at[trace.AQMark]["S1:ingress"] == 0 || len(at[trace.AQMark]) != 1 {
		t.Fatalf("marks: %v, want >0 at S1:ingress only", at[trace.AQMark])
	}
	if counts[trace.Send] < counts[trace.Recv] {
		t.Fatalf("more deliveries (%d) than sends (%d)", counts[trace.Recv], counts[trace.Send])
	}

	// Every flow's AQ events, per location, against the AQs' own counters.
	aqEvents := map[trace.Kind]map[string]uint64{trace.AQMark: {}, trace.AQDrop: {}}
	for _, e := range ring.Events() {
		if m := aqEvents[e.Kind]; m != nil {
			m[e.Where]++
		}
	}
	for _, c := range []struct {
		where string
		aq    *core.AQ
	}{{"S1:ingress", ingress}, {"S1:egress", egress}} {
		st := c.aq.Stats()
		if got := aqEvents[trace.AQMark][c.where]; got != st.Marks {
			t.Errorf("%s: %d marks traced, AQ counted %d", c.where, got, st.Marks)
		}
		if got := aqEvents[trace.AQDrop][c.where]; got != st.Drops {
			t.Errorf("%s: %d drops traced, AQ counted %d", c.where, got, st.Drops)
		}
	}
	if aqEvents[trace.AQDrop]["S1:egress"] == 0 {
		t.Fatal("the egress AQ traced no drops")
	}
	if n := len(aqEvents[trace.AQMark]) + len(aqEvents[trace.AQDrop]); n != 3 {
		t.Fatalf("AQ events at %v, want marks and drops at S1:ingress and drops at S1:egress only", aqEvents)
	}

	// Detach: nil the hooks, and the components must go quiet.
	d.Left[0].TxHook, d.Left[0].RxHook = nil, nil
	d.Right[0].TxHook, d.Right[0].RxHook = nil, nil
	d.S1.AQHook = nil
	before := ring.Recorded
	s2 := transport.NewSender(d.Left[0], d.Right[0], 0, cc.NewCubic(),
		transport.Options{IngressAQ: 1})
	s2.Start(0)
	eng.RunUntil(eng.Now() + 5*sim.Millisecond)
	if ring.Recorded != before {
		t.Fatalf("detached components recorded %d events", ring.Recorded-before)
	}
}
