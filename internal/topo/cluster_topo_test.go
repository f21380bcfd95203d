package topo

import (
	"testing"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// TestDumbbellInBoundaryDelivery: a 2-domain dumbbell delivers traffic in
// both directions across the trunk mailboxes, and the packets — acquired
// from the sending domain's free list, released into the receiving
// domain's — survive the hand-off (the aqdebug CI step runs this same test
// under pool poisoning to prove no double-free or cross-drain).
func TestDumbbellInBoundaryDelivery(t *testing.T) {
	c := sim.NewCluster(2)
	d := NewDumbbellIn(c, 2, 2, DefaultSim(), DefaultSim())
	if d.S1.Engine() == d.S2.Engine() {
		t.Fatal("S1 and S2 should live in different domains")
	}
	const each = 50
	for i := 0; i < each; i++ {
		at := sim.Time(i) * 10 * sim.Microsecond
		d.Left[0].Engine().At(at, func() {
			d.Left[0].Send(packet.NewData(d.Left[0].ID(), d.Right[1].ID(), 7, 0, 1000))
		})
		d.Right[0].Engine().At(at, func() {
			d.Right[0].Send(packet.NewData(d.Right[0].ID(), d.Left[1].ID(), 8, 0, 1000))
		})
	}
	c.RunUntil(20 * sim.Millisecond)
	if d.Right[1].RxPackets != each || d.Left[1].RxPackets != each {
		t.Fatalf("delivered %d right / %d left, want %d each",
			d.Right[1].RxPackets, d.Left[1].RxPackets, each)
	}
	if d.S1.RouteMiss != 0 || d.S2.RouteMiss != 0 {
		t.Fatalf("route misses: S1=%d S2=%d", d.S1.RouteMiss, d.S2.RouteMiss)
	}
	// The one-shot sends span the first ~500 us of a 20 ms horizon. The
	// cluster needs a healthy number of rounds while traffic is in flight,
	// but the earliest-event term of its bound strides over the idle tail
	// instead of paying horizon/delay = 2000 rounds.
	if c.Windows < 20 || c.Windows >= 2000 {
		t.Fatalf("got %d rounds, want within [20, 2000): many while active, none for the idle tail", c.Windows)
	}
}

// TestFatTreeAllPairsReachable: in a k=4 fat tree every ordered host pair
// exchanges a packet with no routing miss, across 2 domains.
func TestFatTreeAllPairsReachable(t *testing.T) {
	c := sim.NewCluster(2)
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

// fatTreeTrafficFingerprint runs a fixed synthetic traffic pattern on a
// k=4 fat tree split into n domains and folds every delivery's
// (host, time, size) into an order-independent checksum.
func fatTreeTrafficFingerprint(t *testing.T, domains int) uint64 {
	t.Helper()
	c := sim.NewCluster(domains)
	f := NewFatTreeIn(c, 4, DefaultSim(), DefaultSim())
	n := len(f.Hosts)
	var sum uint64
	for i, h := range f.Hosts {
		h := h
		id := uint64(i)
		h.RxHook = func(p *packet.Packet) {
			// splitmix64-style mix, summed: commutative, so the checksum is
			// independent of the order domains execute within a window.
			z := id<<48 ^ uint64(h.Engine().Now())<<8 ^ uint64(p.Size) + 0x9e3779b97f4a7c15
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			sum += z ^ (z >> 27)
		}
	}
	// Bursty all-to-all shifts: every host streams to several destinations,
	// enough volume to queue, drop and jitter on the shared tiers.
	for s := 0; s < n; s++ {
		src := f.Hosts[s]
		for k := 1; k <= 5; k++ {
			dst := f.Hosts[(s+k*3)%n]
			if dst == src {
				continue
			}
			flow := src.NextFlowID()
			for q := 0; q < 40; q++ {
				at := sim.Time(s)*200 + sim.Time(q)*3*sim.Microsecond
				src.Engine().At(at, func() {
					src.Send(packet.NewData(src.ID(), dst.ID(), flow, 0, 1000))
				})
			}
		}
	}
	c.RunUntil(5 * sim.Millisecond)
	return sum
}

// TestFatTreePartitionParity: the same fat-tree traffic produces identical
// delivery checksums for 1, 2 and 4 domains — ECMP hashes, AQM seeds,
// jitter streams and delivery ordering all partition-invariant.
func TestFatTreePartitionParity(t *testing.T) {
	base := fatTreeTrafficFingerprint(t, 1)
	for _, n := range []int{2, 4} {
		if got := fatTreeTrafficFingerprint(t, n); got != base {
			t.Errorf("%d-domain checksum %#x differs from 1-domain %#x", n, got, base)
		}
	}
}
