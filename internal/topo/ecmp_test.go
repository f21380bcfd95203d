package topo

import (
	"testing"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// TestFlowHashSpreadsConsecutiveFlows checks the ECMP hash against its
// actual workload: flow IDs are allocated consecutively, so the splitmix64
// finalizer must spread a contiguous block near-uniformly over a port
// group rather than striping it.
func TestFlowHashSpreadsConsecutiveFlows(t *testing.T) {
	for _, groupSize := range []uint64{2, 3, 4, 8} {
		const flows = 4096
		counts := make([]int, groupSize)
		for f := 0; f < flows; f++ {
			counts[flowHash(packet.FlowID(f))%groupSize]++
		}
		want := float64(flows) / float64(groupSize)
		for port, n := range counts {
			// ±25% of the expected share is ~9 standard deviations for
			// these sizes — loose enough to never flake, tight enough to
			// catch a degenerate hash.
			if float64(n) < 0.75*want || float64(n) > 1.25*want {
				t.Errorf("group of %d: port %d got %d of %d flows (want ≈%.0f)",
					groupSize, port, n, flows, want)
			}
		}
	}
}

// farHost is a destination ID far outside any built topology: one route to
// it is how production ends up on the map layout (ident.Dense declines the
// range), so it is how the tests force that layout too.
const farHost = packet.HostID(1 << 20)

// TestDenseECMPMatchesMapPath pins the dense forwarding table to the map
// path it mirrors: for every (dst, flow), the slice-indexed lookup must
// resolve the identical port — exact-route precedence included. The layout
// is chosen from the routes themselves, so the test builds two switches
// with identical routes, gives one a far-away destination on top, asserts
// which layout served each, and compares the chosen port indices.
func TestDenseECMPMatchesMapPath(t *testing.T) {
	build := func(sparse bool) *Switch {
		eng := sim.NewEngine()
		sw := NewSwitch(eng, "ecmp")
		sink := &collector{eng: eng}
		for i := 0; i < 4; i++ {
			sw.AddPort(NewPipe(eng, units.Gbps, 0, 0, 0, sink))
		}
		sw.AddECMPRoute(1, 0, 1, 2, 3)
		sw.AddECMPRoute(2, 2, 3)
		sw.AddRoute(2, 0) // exact route shadows dst 2's group on both paths
		sw.AddRoute(3, 1)
		if sparse {
			sw.AddRoute(farHost, 3)
		}
		return sw
	}
	portIndex := func(sw *Switch, p *Pipe) int {
		if p == nil {
			return -1
		}
		for i, q := range sw.ports {
			if q == p {
				return i
			}
		}
		t.Fatal("outPipe returned a pipe that is not a port")
		return -2
	}

	dsw := build(false)
	msw := build(true)
	for dst := packet.HostID(1); dst <= 4; dst++ {
		for f := 0; f < 512; f++ {
			p := &packet.Packet{Dst: dst, Flow: packet.FlowID(f)}

			dense := portIndex(dsw, dsw.outPipe(p))
			if dsw.fwd == nil {
				t.Fatal("dense forwarding table not built for a dense topology")
			}

			mapped := portIndex(msw, msw.outPipe(p))
			if msw.fwd != nil {
				t.Fatal("dense table built over a sparse destination range")
			}

			if dense != mapped {
				t.Fatalf("dst %d flow %d: dense picked port %d, map picked port %d", dst, f, dense, mapped)
			}
			if dst == 4 && dense != -1 {
				t.Fatalf("dst 4 has no route but resolved a pipe")
			}
			if dst == 2 && dense != 0 {
				t.Fatalf("exact route for dst 2 did not shadow its ECMP group")
			}
		}
	}
	far := &packet.Packet{Dst: farHost}
	if got := portIndex(msw, msw.outPipe(far)); got != 3 {
		t.Fatalf("far destination resolved port %d on the map path, want 3", got)
	}
	if got := portIndex(dsw, dsw.outPipe(far)); got != -1 {
		t.Fatalf("far destination resolved port %d past the dense table's end, want a miss", got)
	}
}
