package topo

import (
	"strings"
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

// TestForwardingPrecedenceAndHash pins the forwarding table's resolution
// for every (dst, flow): an exact route wins over an ECMP group whichever was
// added first, a group picks its member by flowHash, and a destination with
// no route — unrouted inside the table, or past its end — misses.
func TestForwardingPrecedenceAndHash(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, "ecmp")
	sink := &collector{eng: eng}
	for i := 0; i < 4; i++ {
		sw.AddPort(NewPipe(eng, units.Gbps, 0, 0, 0, sink))
	}
	sw.AddECMPRoute(1, 0, 1, 2, 3)
	sw.AddECMPRoute(2, 2, 3)
	sw.AddRoute(2, 0) // added after the group: shadows it
	sw.AddRoute(3, 1)
	sw.AddRoute(5, 2)
	sw.AddECMPRoute(5, 0, 1) // added after the exact route: still shadowed
	groups := map[packet.HostID][]int{1: {0, 1, 2, 3}}
	exact := map[packet.HostID]int{2: 0, 3: 1, 5: 2}

	const farHost = packet.HostID(1 << 20)
	for _, dst := range []packet.HostID{0, 1, 2, 3, 4, 5, 6, farHost} {
		for f := 0; f < 512; f++ {
			want := (*Pipe)(nil)
			if port, ok := exact[dst]; ok {
				want = sw.Port(port)
			} else if g := groups[dst]; g != nil {
				want = sw.Port(g[flowHash(packet.FlowID(f))%uint64(len(g))])
			}
			if got := sw.outPipe(&packet.Packet{Dst: dst, Flow: packet.FlowID(f)}); got != want {
				t.Fatalf("dst %d flow %d: resolved %v, want %v", dst, f, got, want)
			}
		}
	}
}

// TestRouteValidation: a route through a port that is not attached, or to a
// negative destination, panics with the switch's own error when it is added.
func TestRouteValidation(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, "v")
	sw.AddPort(NewPipe(eng, units.Gbps, 0, 0, 0, &collector{eng: eng}))
	for name, add := range map[string]func(){
		"port past the end":      func() { sw.AddRoute(1, 1) },
		"negative port":          func() { sw.AddRoute(1, -1) },
		"ECMP member invalid":    func() { sw.AddECMPRoute(1, 0, 3) },
		"negative destination":   func() { sw.AddRoute(-1, 0) },
		"negative ECMP, no port": func() { sw.AddECMPRoute(-2) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "switch v: route to") {
					t.Errorf("%s: panicked with %q, want the switch's route error", name, msg)
				}
			}()
			add()
		}()
	}
}
