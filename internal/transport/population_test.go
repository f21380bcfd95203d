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

// TestPacketPopulationBalances holds the engine's packet ledger: between
// events every packet the pool has handed out and not taken back sits in
// exactly one pipe's flights, so gets − releases equals the pipes'
// InFlight total, and a drained run has released every packet it got. The
// run loses packets on every path that releases one: a shallow bottleneck
// tail-drops CUBIC, DCTCP and UDP packets, and a 2 Gbps ingress AQ drops
// most of a 10 Gbps UDP blast, whose datagrams are not ECN-capable.
func TestPacketPopulationBalances(t *testing.T) {
	eng := sim.NewEngine()
	edge, trunk := topo.DefaultSim(), topo.DefaultSim()
	trunk.QueueLimit, trunk.ECNThreshold, trunk.AQMDrop = 20*1000, 10*1000, false
	d := topo.NewDumbbell(eng, 3, 3, edge, trunk)
	aq := d.S1.Ingress.Deploy(core.Config{ID: 1, Rate: 2 * units.Gbps})

	// Every pipe of the dumbbell: the two trunk directions, each host's
	// uplink, and each switch's host-facing ports (port 0 is the trunk).
	pipes := []*topo.Pipe{d.Bottleneck, d.ReverseTrunk}
	for i := range d.Left {
		pipes = append(pipes, d.Left[i].Uplink(), d.Right[i].Uplink(), d.S1.Port(i+1), d.S2.Port(i+1))
	}
	pool := packet.PoolFor(eng)
	balance := func(when string) int {
		t.Helper()
		held := 0
		for _, p := range pipes {
			held += p.InFlight()
		}
		st := pool.Stats()
		if st.Gets-st.Releases != uint64(held) {
			t.Fatalf("%s: %d gets − %d releases = %d packets out, pipes hold %d",
				when, st.Gets, st.Releases, st.Gets-st.Releases, held)
		}
		return held
	}

	cubic := NewSender(d.Left[0], d.Right[0], 3*1000*1000, cc.NewCubic(), Options{})
	dctcp := NewSender(d.Left[1], d.Right[1], 3*1000*1000, cc.NewDCTCP(), Options{EcnCapable: true})
	udp := NewUDPSender(d.Left[2], d.Right[2], 10*units.Gbps, Options{IngressAQ: 1})
	cubic.Start(0)
	dctcp.Start(0)
	udp.Start(0)

	peak := 0
	for step := sim.Time(1); step <= 40; step++ {
		at := step*250*sim.Microsecond + 7
		eng.RunUntil(at)
		peak = max(peak, balance("at "+at.String()))
	}
	udp.Stop()
	eng.RunUntil(2 * sim.Second)

	if !cubic.Done() || !dctcp.Done() {
		t.Fatalf("flows unfinished: CUBIC acked %d, DCTCP acked %d", cubic.AckedBytes(), dctcp.AckedBytes())
	}
	if held := balance("after the drain"); held != 0 {
		t.Fatalf("pipes still hold %d packets after the drain", held)
	}
	st := pool.Stats()
	tail := d.Bottleneck.Queue().Stats().Dropped
	if aq.Stats().Drops == 0 || tail == 0 || peak == 0 {
		t.Fatalf("AQ drops %d, tail drops %d, peak population %d: the run must drop on both paths and hold packets",
			aq.Stats().Drops, tail, peak)
	}
	t.Logf("%d packets got and released; peak %d in flight; %d AQ drops, %d tail drops",
		st.Gets, peak, aq.Stats().Drops, tail)
}
