package topo_test

import (
	"testing"

	"aqueue/internal/cc"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
)

// TestClusterRoundsOverlapDomains: on a busy fabric every round must hand
// work to (nearly) every domain, and there must be no more rounds than
// windows in the horizon. The k=4 fat tree carries one long-lived CUBIC
// flow per host to its counterpart two pods over, so every domain has
// packets in flight at every instant. A scheduler that lets one domain run
// ahead of its neighbours reads 1.00 domains a round here — they alternate,
// and workers have nothing to overlap — and takes more rounds to get there.
// The assertion is on DomainLoad.Runs and Windows, not on wall time: both
// are functions of the simulation alone, so the test cannot flake.
func TestClusterRoundsOverlapDomains(t *testing.T) {
	const horizon = 5 * sim.Millisecond
	spec := topo.DefaultSim()
	for _, tc := range []struct {
		domains  int
		perRound float64
	}{{2, 1.9}, {4, 3.5}} {
		c := sim.NewCluster(tc.domains)
		f := topo.NewFatTreeIn(c, 4, spec, spec)
		n := len(f.Hosts)
		for i, h := range f.Hosts {
			dst := f.Hosts[(i+2*f.HostsPerPod())%n]
			transport.NewSender(h, dst, 0, cc.NewCubic(), transport.Options{}).Start(0)
		}
		c.RunUntil(horizon)

		st := c.SyncStats()
		var runs uint64
		for _, d := range st.Domains {
			runs += d.Runs
		}
		if got := float64(runs) / float64(st.Windows); got < tc.perRound {
			t.Errorf("%d domains: %.2f domains dispatched per round (%d runs in %d rounds), want >= %.1f",
				tc.domains, got, runs, st.Windows, tc.perRound)
		}
		if limit := uint64(horizon/spec.Delay) + 1; st.Windows > limit {
			t.Errorf("%d domains: %d rounds, want <= horizon/delay + 1 = %d", tc.domains, st.Windows, limit)
		}
	}
}
