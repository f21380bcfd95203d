package experiments

import (
	"testing"

	"aqueue/internal/sim"
)

func TestPerEntityQueuesScalingArgument(t *testing.T) {
	// With entities within the hardware queue count, DRR is fair; beyond
	// it, hash-collided entities share a queue and flow-count capture
	// breaks fairness, while AQ (15 B/entity) keeps it.
	drr4, aq4 := ExtPerEntityQueues(4, 8, 60*sim.Millisecond, 1, false)
	if drr4 < 0.9 || aq4 < 0.9 {
		t.Fatalf("n=4: DRR %.3f AQ %.3f, both should be fair", drr4, aq4)
	}
	drr32, aq32 := ExtPerEntityQueues(32, 8, 60*sim.Millisecond, 1, false)
	if aq32 < 0.9 {
		t.Fatalf("n=32: AQ fairness %.3f, want ~1", aq32)
	}
	if drr32 > aq32-0.04 {
		t.Fatalf("n=32: DRR %.3f not clearly below AQ %.3f", drr32, aq32)
	}
}
