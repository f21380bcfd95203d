package experiments

import (
	"testing"

	"aqueue/internal/sim"
)

// TestChurnHonoursParallelDomains: the harness asks for worker-driven
// domains through the parallel flag every experiment takes; Churn's fabric
// must actually put its cluster on workers, not silently run cooperatively.
func TestChurnHonoursParallelDomains(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		f := churnFabric(sim.Millisecond, 2, parallel)
		if got := f.SyncStats().Parallel; got != parallel {
			t.Errorf("parallel = %v: cluster parallel = %v", parallel, got)
		}
		f.Close()
	}
}
