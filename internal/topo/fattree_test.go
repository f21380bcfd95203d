package topo

import (
	"testing"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// TestFatTreeAllPairsReachable: in a k=4 fat tree every ordered host pair
// exchanges a packet with no routing miss.
func TestFatTreeAllPairsReachable(t *testing.T) {
	c := sim.NewCluster(1)
	f := NewFatTreeIn(c, 4, DefaultSim(), DefaultSim())
	n := len(f.Hosts)
	if n != 16 {
		t.Fatalf("k=4 fat tree has %d hosts, want 16", n)
	}
	sent := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			src, dst := f.Hosts[s], f.Hosts[d]
			flow := packet.FlowID(s*n + d + 1)
			src.Engine().At(sim.Time(sent)*sim.Microsecond, func() {
				src.Send(packet.NewData(src.ID(), dst.ID(), flow, 0, 1000))
			})
			sent++
		}
	}
	c.RunUntil(10 * sim.Millisecond)
	var rx uint64
	for _, h := range f.Hosts {
		rx += h.RxPackets
	}
	if rx != uint64(sent) {
		t.Fatalf("delivered %d of %d packets", rx, sent)
	}
	for _, sw := range f.Cores {
		if sw.RouteMiss != 0 {
			t.Fatalf("%v: route miss", sw)
		}
	}
}
