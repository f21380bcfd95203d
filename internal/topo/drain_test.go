// Edge cases of the virtual-transmitter lazy drain (FIFO.PopDrainedN via
// Pipe.drainStarted): deadline ties, interaction with ECN marking and tail
// drops, and coexistence with the event-driven transmitter that a DRR
// scheduler forces — all on the occupancy the queue reports, since that is
// what tail-drop, marking and Backlog decisions read.
package topo

import (
	"testing"

	"aqueue/internal/packet"
	"aqueue/internal/queue"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// TestPipeDrainAtDeadlineTie pins the boundary of drainStarted: an entry
// whose serialization start equals the current instant has begun service
// and must be drained — at == now is "started", only at > now is "waiting".
// A packet enqueued on an idle transmitter (start == now) likewise never
// counts as queued.
func TestPipeDrainAtDeadlineTie(t *testing.T) {
	eng := sim.NewEngine()
	c := &collector{eng: eng}
	p := NewPipe(eng, 10*units.Gbps, 0, 0, 0, c)
	// Three 1040B packets at t=0 on a 10 Gbps link (832ns each): the first
	// starts serializing immediately and is drained inline; the others wait
	// with start deadlines at exactly 832 and 1664.
	for i := 0; i < 3; i++ {
		p.Send(packet.NewData(0, 1, 1, int64(i*1000), 1000))
	}
	if got := p.Backlog(); got != 2*1040 {
		t.Fatalf("backlog at t=0 = %d, want 2080 (idle-transmitter packet must not count)", got)
	}
	probes := []struct {
		at   sim.Time
		want int
	}{
		{831, 2 * 1040}, // 1ns before the deadline: still waiting
		{832, 1040},     // tie: serialization begins at this very instant
		{1663, 1040},    // 1ns before the next deadline
		{1664, 0},       // tie again, queue fully drained
	}
	got := make(map[sim.Time]int)
	for _, pr := range probes {
		at := pr.at
		eng.At(at, func() { got[at] = p.Backlog() })
	}
	eng.Run()
	for _, pr := range probes {
		if got[pr.at] != pr.want {
			t.Errorf("backlog at t=%d = %d, want %d", pr.at, got[pr.at], pr.want)
		}
	}
	if len(c.pkts) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(c.pkts))
	}
}

// TestPipeDrainAfterECNMarkedTailDrop sends a burst that first drives the
// occupancy through the ECN threshold (marking every accepted packet) and
// then over the byte limit (tail-dropping the last). The dropped packet must
// not leave a pending-start entry behind — otherwise the lazy drain would
// retire one entry too many and the byte accounting would go negative.
func TestPipeDrainAfterECNMarkedTailDrop(t *testing.T) {
	eng := sim.NewEngine()
	c := &collector{eng: eng}
	// Limit admits four 1040B packets (4160 > 3200 rejects the fifth); the
	// ECN threshold is below a single packet, so every accepted one is
	// marked.
	p := NewPipe(eng, 10*units.Gbps, 0, 3200, 1000, c)
	for i := 0; i < 5; i++ {
		pkt := packet.NewData(0, 1, 1, int64(i*1000), 1000)
		pkt.EcnCapable = true
		p.Send(pkt)
	}
	q := p.Queue()
	if q.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", q.Dropped)
	}
	if q.Marked != 4 {
		t.Fatalf("Marked = %d, want 4", q.Marked)
	}
	// Mid-flight: starts at 832 and 1664 have passed, only the fourth packet
	// (start 2496) is still waiting. A stale entry from the dropped packet
	// would surface here as a wrong (or later, negative) backlog.
	var mid int
	eng.At(1664, func() { mid = p.Backlog() })
	eng.Run()
	if mid != 1040 {
		t.Fatalf("backlog at t=1664 = %d, want 1040", mid)
	}
	if len(c.pkts) != 4 {
		t.Fatalf("delivered %d packets, want 4", len(c.pkts))
	}
	for i, pkt := range c.pkts {
		if !pkt.CE {
			t.Fatalf("delivered packet %d not CE-marked", i)
		}
	}
	if p.Backlog() != 0 || q.Bytes() != 0 || q.Len() != 0 {
		t.Fatalf("queue not empty after run: backlog=%d bytes=%d len=%d",
			p.Backlog(), q.Bytes(), q.Len())
	}
}

// TestPipeDrainInterleavedWithDRROnSameSwitch runs both transmitter
// implementations side by side on one switch: a plain-FIFO port on the
// virtual-transmitter fast path (lazy drain accounting) and a DRR port
// on the event-driven txDone path. The DRR port's events fire between the
// FIFO port's sends and drains on the same engine; both must keep exact,
// independent accounting and identical delivery pacing.
func TestPipeDrainInterleavedWithDRROnSameSwitch(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, "t")
	cf := &collector{eng: eng}
	cd := &collector{eng: eng}
	fifoPipe := NewPipe(eng, 10*units.Gbps, 0, 0, 0, cf)
	drrPipe := NewPipe(eng, 10*units.Gbps, 0, 0, 0, cd)
	drrPipe.SetScheduler(queue.NewDRR(2, 0, 0, nil))
	sw.AddRoute(5, sw.AddPort(fifoPipe))
	sw.AddRoute(6, sw.AddPort(drrPipe))

	const n = 8
	for i := 0; i < n; i++ {
		i := i
		// Arrivals every 100ns against an 832ns serialization time: both
		// ports build queues, and every DRR txDone fires between two FIFO
		// sends.
		eng.At(sim.Time(i*100), func() {
			sw.Receive(packet.NewData(0, 5, 1, int64(i), 1000))
			sw.Receive(packet.NewData(0, 6, packet.FlowID(2+i%2), int64(i), 1000))
		})
	}
	// At t=900 each port has received 8 packets and finished exactly one
	// (at t=832), with one more in service: 6 waiting on both, whichever
	// transmitter implementation is counting.
	var fifoMid, drrMid int
	eng.At(900, func() { fifoMid = fifoPipe.Backlog(); drrMid = drrPipe.Backlog() })
	eng.Run()

	if fifoMid != 6*1040 || drrMid != 6*1040 {
		t.Fatalf("mid-flight backlogs fifo=%d drr=%d, want %d on both", fifoMid, drrMid, 6*1040)
	}
	if len(cf.pkts) != n || len(cd.pkts) != n {
		t.Fatalf("delivered fifo=%d drr=%d, want %d each", len(cf.pkts), len(cd.pkts), n)
	}
	for i := 1; i < n; i++ {
		if got := cf.times[i] - cf.times[i-1]; got != 832 {
			t.Fatalf("fifo delivery spacing %d = %v, want 832ns", i, got)
		}
		if got := cd.times[i] - cd.times[i-1]; got != 832 {
			t.Fatalf("drr delivery spacing %d = %v, want 832ns", i, got)
		}
	}
	for i, pkt := range cf.pkts {
		if pkt.Seq != int64(i) {
			t.Fatalf("fifo delivery %d has seq %d, want arrival order", i, pkt.Seq)
		}
	}
	if fifoPipe.Backlog() != 0 || drrPipe.Backlog() != 0 {
		t.Fatalf("backlogs not drained: fifo=%d drr=%d", fifoPipe.Backlog(), drrPipe.Backlog())
	}
	if fifoPipe.TxPackets != n || drrPipe.TxPackets != n {
		t.Fatalf("tx counters fifo=%d drr=%d, want %d each", fifoPipe.TxPackets, drrPipe.TxPackets, n)
	}
}
