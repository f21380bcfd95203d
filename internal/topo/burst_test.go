package topo

import (
	"testing"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/queue"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// The burst-drain edge cases: every test runs the same scenario with burst
// draining on and off and requires identical deliveries — same packets,
// same instants, same marks and drops — while asserting the burst run
// actually elided events (Inlined > 0), so a silently disabled burst path
// cannot pass.

// burstRun captures one delivery trace.
type burstRun struct {
	times   []sim.Time
	ce      []bool
	seqs    []int64
	inlined uint64
}

func traceOf(eng *sim.Engine, c *collector) burstRun {
	r := burstRun{inlined: eng.Stats().Inlined, times: c.times}
	for _, p := range c.pkts {
		r.ce = append(r.ce, p.CE)
		r.seqs = append(r.seqs, p.Seq)
	}
	return r
}

func requireSameTrace(t *testing.T, on, off burstRun) {
	t.Helper()
	if on.inlined == 0 {
		t.Fatal("burst run inlined no deliveries — bursting never engaged")
	}
	if off.inlined != 0 {
		t.Fatalf("per-packet run inlined %d deliveries", off.inlined)
	}
	if len(on.times) != len(off.times) {
		t.Fatalf("burst delivered %d packets, per-packet %d", len(on.times), len(off.times))
	}
	for i := range on.times {
		if on.times[i] != off.times[i] {
			t.Fatalf("delivery %d at %v under burst, %v per-packet", i, on.times[i], off.times[i])
		}
		if on.seqs[i] != off.seqs[i] {
			t.Fatalf("delivery %d is seq %d under burst, %d per-packet", i, on.seqs[i], off.seqs[i])
		}
		if on.ce[i] != off.ce[i] {
			t.Fatalf("delivery %d CE = %v under burst, %v per-packet", i, on.ce[i], off.ce[i])
		}
	}
}

// TestBurstECNMarksMatchPerPacket drives a back-to-back run through a pipe
// whose FIFO crosses its ECN threshold mid-burst: the marked suffix must be
// the same set of packets the per-packet path marks.
func TestBurstECNMarksMatchPerPacket(t *testing.T) {
	run := func(burst int) burstRun {
		eng := sim.NewEngine(sim.WithBurstSize(burst))
		c := &collector{eng: eng}
		p := NewPipe(eng, 10*units.Gbps, 0, 64*1040, 3*1040, c)
		for i := 0; i < 24; i++ {
			pkt := packet.NewData(0, 1, 1, int64(i*1000), 1000)
			pkt.EcnCapable = true
			p.Send(pkt)
		}
		eng.Run()
		return traceOf(eng, c)
	}
	requireSameTrace(t, run(sim.DefaultBurstSize), run(0))
}

// TestBurstTailDropMatchesPerPacket overfills a slow pipe so the tail of
// the run drops: the surviving set and the drop counter must not depend on
// burst draining.
func TestBurstTailDropMatchesPerPacket(t *testing.T) {
	run := func(burst int) (burstRun, uint64) {
		eng := sim.NewEngine(sim.WithBurstSize(burst))
		c := &collector{eng: eng}
		p := NewPipe(eng, 10*units.Gbps, 0, 8*1040, 0, c)
		for i := 0; i < 32; i++ {
			p.Send(packet.NewData(0, 1, 1, int64(i*1000), 1000))
		}
		eng.Run()
		return traceOf(eng, c), p.Queue().Stats().Dropped
	}
	on, onDrops := run(sim.DefaultBurstSize)
	off, offDrops := run(0)
	if onDrops == 0 {
		t.Fatal("scenario produced no tail drops")
	}
	if onDrops != offDrops {
		t.Fatalf("burst dropped %d, per-packet %d", onDrops, offDrops)
	}
	requireSameTrace(t, on, off)
}

// TestBurstDRRAndFIFOCoexist puts a DRR-scheduled port and a FIFO port on
// one switch — the event-driven and the virtual-transmitter paths sharing
// one burst bracket — and requires identical interleaved deliveries.
func TestBurstDRRAndFIFOCoexist(t *testing.T) {
	run := func(burst int) (burstRun, burstRun, SwitchStats) {
		eng := sim.NewEngine(sim.WithBurstSize(burst))
		sw := NewSwitch(eng, "mix")
		c1 := &collector{eng: eng}
		c2 := &collector{eng: eng}
		drrPort := NewPipe(eng, units.Gbps, 0, 0, 0, c1)
		drrPort.SetScheduler(queue.NewDRR(2, 0, 64*1540, nil))
		fifoPort := NewPipe(eng, units.Gbps, 0, 0, 0, c2)
		sw.AddRoute(1, sw.AddPort(drrPort))
		sw.AddRoute(2, sw.AddPort(fifoPort))
		// An ingress AQ on the FIFO-bound entity so the burst cursors see
		// same-entity coalescing while the DRR port drains event by event.
		sw.Ingress.Deploy(core.Config{ID: 9, Rate: units.Gbps, Limit: 64 * 1540})
		feed := NewPipe(eng, 10*units.Gbps, 0, 0, 0, sw)
		for i := 0; i < 24; i++ {
			a := packet.NewData(0, 1, packet.FlowID(i%2), int64(i*1000), 1000)
			feed.Send(a)
			b := packet.NewData(0, 2, 3, int64(i*1000), 1000)
			b.IngressAQ = 9
			feed.Send(b)
		}
		eng.Run()
		return traceOf(eng, c1), traceOf(eng, c2), sw.Stats()
	}
	on1, on2, onStats := run(sim.DefaultBurstSize)
	off1, off2, offStats := run(0)
	if onStats != offStats {
		t.Fatalf("switch stats differ: burst %+v, per-packet %+v", onStats, offStats)
	}
	// The feed pipe bursts into the switch either way; the DRR port's own
	// deliveries may or may not inline, so only the combined run must have
	// inlined something.
	if on1.inlined == 0 && on2.inlined == 0 {
		t.Fatal("burst run inlined no deliveries")
	}
	on1.inlined, on2.inlined = 1, 1 // requireSameTrace per-port: already checked
	off1.inlined, off2.inlined = 0, 0
	requireSameTrace(t, on1, off1)
	requireSameTrace(t, on2, off2)
}

// TestBurstTruncatedAtClusterWindow runs a long back-to-back train inside a
// partitioned cluster whose 1 us lookahead windows are far shorter than the
// train: every window boundary must truncate the burst (the engine may not
// advance past its window), yet the delivery schedule stays identical to
// the per-packet run.
func TestBurstTruncatedAtClusterWindow(t *testing.T) {
	run := func(burst int) (burstRun, uint64) {
		cl := sim.NewCluster(2, sim.WithBurstSize(burst))
		// Mutual boundary mailboxes plus a live tick on engine 1 keep
		// engine 0 on a short leash: each round may only advance it
		// ~1-2 us, so the train keeps hitting round boundaries. (Without
		// the coupling, the EAT fixpoint would prove one side inert and
		// run the other to the deadline in a single round.)
		cl.Outbox(cl.Engine(1), cl.Engine(0), cl.NextLane(), sim.Microsecond, func(any) {})
		cl.Outbox(cl.Engine(0), cl.Engine(1), cl.NextLane(), sim.Microsecond, func(any) {})
		ticker := cl.Engine(1)
		var tick func()
		tick = func() {
			if ticker.Now() < 100*sim.Microsecond {
				ticker.After(sim.Microsecond, tick)
			}
		}
		ticker.At(0, tick)
		eng := cl.Engine(0)
		c := &collector{eng: eng}
		p := NewPipe(eng, 10*units.Gbps, 100, 0, 0, c)
		p.SetLane(cl.NextLane())
		for i := 0; i < 40; i++ {
			p.Send(packet.NewData(0, 1, 1, int64(i*1000), 1000))
		}
		cl.RunUntil(100 * sim.Microsecond)
		return traceOf(eng, c), cl.Windows
	}
	on, onWindows := run(sim.DefaultBurstSize)
	off, offWindows := run(0)
	if onWindows < 10 {
		t.Fatalf("cluster ran %d windows — the train never crossed window boundaries", onWindows)
	}
	if onWindows != offWindows {
		t.Fatalf("burst ran %d windows, per-packet %d", onWindows, offWindows)
	}
	// 40 packets at 832 ns spacing span ~33 windows, so bursts were cut at
	// boundaries; every delivery must still land on the per-packet schedule.
	if on.inlined >= uint64(len(on.times)-1) {
		t.Fatalf("burst inlined %d of %d deliveries — window truncation never happened", on.inlined, len(on.times))
	}
	requireSameTrace(t, on, off)
}

// TestDrainRunBurstParity is the regime burst mode is built for: 5000 MSS
// packets queued onto an idle 10 Gbps pipe at t=0 with nothing else on the
// calendar, so the whole drain is one back-to-back run. The traffic must
// not depend on burst draining — same deliveries, same final clock, same
// events + inlined total — and the burst pass must dispatch under a tenth
// of the per-packet pass's events.
func TestDrainRunBurstParity(t *testing.T) {
	const pkts = 5000
	run := func(burst int) (int, sim.EngineStats) {
		eng := sim.NewEngine(sim.WithBurstSize(burst))
		c := &collector{eng: eng}
		p := NewPipe(eng, 10*units.Gbps, 5*sim.Microsecond, 0, 0, c)
		for i := 0; i < pkts; i++ {
			p.Send(packet.NewData(1, 2, 1, int64(i)*packet.DefaultMSS, packet.DefaultMSS))
		}
		eng.Run()
		return len(c.pkts), eng.Stats()
	}
	d, on := run(sim.DefaultBurstSize)
	refD, off := run(0)
	if d != pkts || refD != pkts {
		t.Fatalf("delivered %d burst vs %d per-packet, want %d", d, refD, pkts)
	}
	if on.Now != off.Now {
		t.Fatalf("final clock %d burst vs %d per-packet", on.Now, off.Now)
	}
	if off.Inlined != 0 {
		t.Fatalf("burst-off pass inlined %d deliveries", off.Inlined)
	}
	if on.Processed+on.Inlined != off.Processed+off.Inlined {
		t.Fatalf("event+inline total %d burst vs %d per-packet", on.Processed+on.Inlined, off.Processed+off.Inlined)
	}
	if on.Processed*10 >= off.Processed {
		t.Fatalf("burst drain dispatched %d events vs %d per-packet — expected >10x cut", on.Processed, off.Processed)
	}
}
