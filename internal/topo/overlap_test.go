package topo_test

import (
	"testing"

	"aqueue/internal/cc"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
)

// busyFatTree builds a k-ary fat tree on c carrying one long-lived CUBIC
// flow per host to its counterpart two pods over, so every domain has
// packets in flight at every instant.
func busyFatTree(c *sim.Cluster, k int, spec topo.LinkSpec) {
	f := topo.NewFatTreeIn(c, k, spec, spec)
	n := len(f.Hosts)
	for i, h := range f.Hosts {
		dst := f.Hosts[(i+2*f.HostsPerPod())%n]
		transport.NewSender(h, dst, 0, cc.NewCubic(), transport.Options{}).Start(0)
	}
}

// domainsPerRound is Σ DomainLoad.Runs ÷ Windows: how many domains a round
// hands work to on average.
func domainsPerRound(st sim.SyncStats) float64 {
	var runs uint64
	for _, d := range st.Domains {
		runs += d.Runs
	}
	return float64(runs) / float64(st.Windows)
}

// TestClusterRoundsOverlapDomains: on a busy fabric every round must hand
// work to (nearly) every domain, and there must be no more rounds than
// windows in the horizon. The k=4 fat tree of busyFatTree keeps every
// domain busy. A scheduler that lets one domain run ahead of its
// neighbours reads 1.00 domains a round here — they alternate — and takes
// more rounds to get there. The assertion is on DomainLoad.Runs and
// Windows, not on wall time: both are functions of the simulation alone,
// so the test cannot flake.
func TestClusterRoundsOverlapDomains(t *testing.T) {
	const horizon = 5 * sim.Millisecond
	spec := topo.DefaultSim()
	for _, tc := range []struct {
		domains  int
		perRound float64
	}{{2, 1.9}, {4, 3.5}} {
		c := sim.NewCluster(tc.domains)
		busyFatTree(c, 4, spec)
		c.RunUntil(horizon)

		st := c.SyncStats()
		if got := domainsPerRound(st); got < tc.perRound {
			t.Errorf("%d domains: %.2f domains dispatched per round in %d rounds, want >= %.1f",
				tc.domains, got, st.Windows, tc.perRound)
		}
		if limit := uint64(horizon/spec.Delay) + 1; st.Windows > limit {
			t.Errorf("%d domains: %d rounds, want <= horizon/delay + 1 = %d", tc.domains, st.Windows, limit)
		}
	}
}

// BenchmarkFatTreeDomains runs busyFatTree's k=8 fabric (128 hosts, one
// CUBIC flow each) for 20 ms of simulated time on one engine and on 2
// cooperative domains. Beside ns/op it reports the rounds' domains per
// round and the share of their wall time (AdvanceNS) that was not engine
// work (BarrierNS): the cost of partitioning a fabric that runs on one
// goroutine.
//
// This is the benchmark that decided the worker executor (DESIGN.md §3b).
// Its protocol: GOMAXPROCS=2; at least 10 processes of
//
//	go test -run '^$' -bench FatTreeDomains -benchtime 1x ./internal/topo/
//
// alternating from process to process which arm runs first; every speed-up
// taken against the one-engine run of the same process; and beside every
// pair the effective cores, read from two spinners that each count into
// their own 64-byte-padded counter, against one spinner alone.
func BenchmarkFatTreeDomains(b *testing.B) {
	const horizon = 20 * sim.Millisecond
	for _, arm := range []struct {
		name    string
		domains int
	}{{"1-engine", 1}, {"2-domains", 2}} {
		b.Run(arm.name, func(b *testing.B) {
			var st sim.SyncStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := sim.NewCluster(arm.domains)
				busyFatTree(c, 8, topo.DefaultSim())
				b.StartTimer()
				c.RunUntil(horizon)
				st = c.SyncStats()
			}
			b.ReportMetric(domainsPerRound(st), "domains/round")
			b.ReportMetric(float64(st.BarrierNS)/float64(st.AdvanceNS), "barrier/advance")
		})
	}
}
