package experiments

import (
	"testing"

	"aqueue/internal/harness"
	"aqueue/internal/sim"
)

// TestChurnHonoursDomains: Churn's fabric builds its own cluster rather
// than through Params.Cluster, so it must still partition it into the
// domains the harness asks for, not silently run on one engine.
func TestChurnHonoursDomains(t *testing.T) {
	f := churnFabric(harness.Params{Domains: 2}, sim.Millisecond)
	if got := len(f.SyncStats().Domains); got != 2 {
		t.Errorf("churn fabric has %d domains, want 2", got)
	}
}
