package experiments

import (
	"testing"

	"aqueue/internal/harness"
	"aqueue/internal/sim"
)

// TestChurnHonoursParallelDomains: the harness asks for worker-driven
// domains through Params.Parallel; Churn's fabric builds its own cluster
// rather than through Params.Cluster, so it must still put that cluster on
// workers, not silently run cooperatively.
func TestChurnHonoursParallelDomains(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		f := churnFabric(harness.Params{Domains: 2, Parallel: parallel}, sim.Millisecond)
		if got := f.SyncStats().Parallel; got != parallel {
			t.Errorf("parallel = %v: cluster parallel = %v", parallel, got)
		}
		f.Close()
	}
}
