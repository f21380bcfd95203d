package topo_test

import (
	"testing"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
)

// TestZeroLoadLatencyIsStoreAndForward is an analytic anchor: one packet
// alone on a k=4 fat tree, from host 0 to host 2·HostsPerPod() two pods
// over, crosses 6 store-and-forward hops (host, edge, agg, core, agg, edge
// uplinks) and so arrives at exactly 6·(⌈size·8·10⁹ / rate⌉ + delay), with
// no physical or virtual queueing. The expected time is integer arithmetic
// here, not the production TransmitNanos. With DefaultSim's jitter each
// hop adds up to jitter−1 ns of propagation, so the arrival lies in
// [want, want + 6·(jitter−1)].
func TestZeroLoadLatencyIsStoreAndForward(t *testing.T) {
	const hops = 6
	for _, jitter := range []sim.Time{0, topo.DefaultSim().Jitter} {
		spec := topo.DefaultSim()
		spec.Jitter = jitter
		rate := int64(spec.Rate)
		for _, size := range []int{64, 1500, 1501, 9000} {
			tx := (int64(size)*8*1_000_000_000 + rate - 1) / rate
			want := sim.Time(hops * (tx + int64(spec.Delay)))
			c := sim.NewCluster(1)
			f := topo.NewFatTreeIn(c, 4, spec, spec)
			src, dst := f.Hosts[0], f.Hosts[2*f.HostsPerPod()]
			var n int
			var at, queued, virtual sim.Time
			dst.RxHook = func(p *packet.Packet) {
				n++
				at, queued, virtual = dst.Engine().Now(), p.QueueDelay, p.VirtualDelay
			}
			p := packet.PoolFor(src.Engine()).Get()
			p.Src, p.Dst, p.Flow, p.Kind, p.Size = src.ID(), dst.ID(), 1, packet.Data, size
			src.Send(p)
			c.RunUntil(sim.Millisecond)

			if n != 1 {
				t.Fatalf("jitter %d, %d B: %d packets arrived, want 1", jitter, size, n)
			}
			if hi := want + hops*max(jitter-1, 0); at < want || at > hi {
				t.Errorf("jitter %d, %d B: arrived at %d ns, want [%d, %d]", jitter, size, at, want, hi)
			}
			if queued != 0 || virtual != 0 {
				t.Errorf("jitter %d, %d B: queue delay %d, virtual delay %d, want 0 and 0",
					jitter, size, queued, virtual)
			}
		}
	}
}
