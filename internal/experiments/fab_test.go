package experiments

import (
	"testing"

	"aqueue/internal/harness"
	"aqueue/internal/sim"
)

func TestFabricIsolationAcrossECMP(t *testing.T) {
	pqA, pqB, aqA, aqB := ExtFabricIsolation(harness.Params{Horizon: 80 * sim.Millisecond})
	if pqB < 1.5*pqA {
		t.Fatalf("PQ fabric split %.2f/%.2f, expected flow-count bias", pqA, pqB)
	}
	if r := aqA / aqB; r < 0.85 || r > 1.18 {
		t.Fatalf("AQ fabric split %.2f/%.2f, want ~equal", aqA, aqB)
	}
	if aqA+aqB < 17 {
		t.Fatalf("AQ fabric total %.2f Gbps of ~20 available", aqA+aqB)
	}
}

func TestFabricIncastGuarantee(t *testing.T) {
	pqIn, aqIn := ExtFabricIncast(harness.Params{Horizon: 80 * sim.Millisecond})
	if pqIn < 4 {
		t.Fatalf("PQ incast inbound %.2f Gbps, expected the burst to land", pqIn)
	}
	if aqIn < 1.6 || aqIn > 2.3 {
		t.Fatalf("AQ incast inbound %.2f Gbps, want the 2 Gbps profile", aqIn)
	}
}
