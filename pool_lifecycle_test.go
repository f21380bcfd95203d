// Packet-pool lifecycle tests at simulator scope: recycling packets must
// be invisible — concurrent runs churning the shared pool stay
// deterministic under -race, and nothing releases a packet it still holds.
package aqueue_test

import (
	"testing"

	"aqueue/internal/experiments"
	"aqueue/internal/harness"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
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

// TestPooledParallelDeterministic runs the same jobs concurrently with the
// shared pool (the harness's normal mode) and checks the results are
// byte-identical to a sequential pass — under -race this also proves the
// pool is the only cross-engine state and it is data-race free.
func TestPooledParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full experiment passes")
	}
	jobs := lifecycleJobs(t)
	// Duplicate the batch so several engines churn the pool at once.
	jobs = append(jobs, jobs...)
	seq := (&harness.Pool{Workers: 1}).Run(jobs)
	par := (&harness.Pool{Workers: 4}).Run(jobs)
	for i := range seq {
		if harness.Fingerprint(seq[i]) != harness.Fingerprint(par[i]) {
			t.Errorf("job %d (%s): parallel fingerprint differs from sequential", i, seq[i].Name)
		}
	}
}

// TestReleasedPacketNotHeldBySimulation drives a short end-to-end run and
// then drains the pool: if any component had released a packet it still
// holds (double release), the pool would hand the same pointer out twice.
func TestReleasedPacketNotHeldBySimulation(t *testing.T) {
	exp, ok := harness.Get("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}
	res, err := exp.Run(harness.Params{Quick: true, Seed: 1})
	if err != nil || res == nil {
		t.Fatalf("fig3 run failed: %v", err)
	}
	seen := make(map[*packet.Packet]bool)
	var got []*packet.Packet
	for i := 0; i < 4096; i++ {
		p := packet.Get()
		if seen[p] {
			t.Fatal("pool handed out the same live packet twice — double release upstream")
		}
		seen[p] = true
		got = append(got, p)
	}
	for _, p := range got {
		packet.Release(p)
	}
}
