// Packet-pool lifecycle tests at simulator scope: recycling packets must
// be invisible — concurrent runs, each recycling through its own engine's
// free list, stay deterministic under -race, and nothing releases a packet
// it still holds.
package aqueue_test

import (
	"testing"

	"aqueue/internal/cc"
	"aqueue/internal/core"
	"aqueue/internal/experiments"
	"aqueue/internal/harness"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
)

// lifecycleJobs is a small cross-section of the sweep: an open-loop figure
// with AQ drops and ECN (fig8 exercises queues, AQs, and retransmission
// timers) and the conceptual fig3 (strawman vs A-Gap, no transport). The
// horizon is cut far below -quick so the -race CI pass stays fast; the
// fingerprint comparison only needs identical runs, not converged ones.
func lifecycleJobs(t *testing.T) []harness.Job {
	t.Helper()
	base := experiments.DefaultParams(true)
	base.Horizon = 20 * sim.Millisecond
	base.Flows = 4
	jobs, err := harness.Jobs([]string{"fig3", "fig8"}, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestPooledParallelDeterministic runs the same jobs concurrently (the
// harness's normal mode, one engine and one packet free list per run) and
// checks the results are byte-identical to a sequential pass — under -race
// this also proves the runs share no state.
func TestPooledParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full experiment passes")
	}
	jobs := lifecycleJobs(t)
	// Duplicate the batch so several engines recycle packets at once.
	jobs = append(jobs, jobs...)
	seq := (&harness.Pool{Workers: 1}).Run(jobs)
	par := (&harness.Pool{Workers: 4}).Run(jobs)
	for i := range seq {
		if harness.Fingerprint(seq[i]) != harness.Fingerprint(par[i]) {
			t.Errorf("job %d (%s): parallel fingerprint differs from sequential", i, seq[i].Name)
		}
	}
}

// TestReleasedPacketNotHeldBySimulation drives a short dumbbell run on an
// engine the test owns — cubic flows through a loss-based AQ, so drop sites
// release packets as well as the delivering hosts — and then draws from that
// engine's free list: if any component had released a packet it still holds
// (double release), the list would hand the same pointer out twice.
func TestReleasedPacketNotHeldBySimulation(t *testing.T) {
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, 2, 2, topo.DefaultSim(), topo.DefaultSim())
	aq := core.Config{ID: 1, Rate: 4 * units.Gbps, Limit: 100_000}
	d.S1.Ingress.Deploy(aq)
	opt := transport.Options{IngressAQ: aq.ID}
	for i := 0; i < 4; i++ {
		f := transport.NewSender(d.Left[i%2], d.Right[i%2], 0, cc.ByName("cubic")(), opt)
		f.Start(sim.Time(i) * 100 * sim.Microsecond)
	}
	eng.RunUntil(20 * sim.Millisecond)
	if st := d.S1.Ingress.Lookup(aq.ID).Stats(); st.Drops == 0 {
		t.Fatalf("run exercised no AQ drop site: %+v", st)
	}

	pool := packet.PoolFor(eng)
	seen := make(map[*packet.Packet]bool)
	for i := 0; i < 4096; i++ {
		p := pool.Get()
		if seen[p] {
			t.Fatal("pool handed out the same live packet twice — double release upstream")
		}
		seen[p] = true
	}
}
