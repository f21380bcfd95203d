package experiments

import (
	"testing"

	"aqueue/internal/sim"
)

// TestAblationsHoldTheirClaims checks each design choice the ablations
// isolate at the horizons bench_test.go runs them: the §6 empty-queue
// bypass and the §4.1 active-set rebalance make a weighted or guaranteed
// entity work-conserving, the §6 arrival-rate reallocator hands an
// under-used share to its peer, and an AQ limit far below the physical
// queue costs a 5 Gbps entity goodput it gets back at the default limit.
func TestAblationsHoldTheirClaims(t *testing.T) {
	const horizon = 60 * sim.Millisecond

	strict, bypass := AblationWorkConservation(false, horizon), AblationWorkConservation(true, horizon)
	if bypass < 2*strict {
		t.Errorf("work conservation: bypass %.3f Gbps, strict %.3f Gbps, want bypass >= 2x strict", bypass, strict)
	}

	static, rebalance := AblationWeightedRebalance(false, horizon), AblationWeightedRebalance(true, horizon)
	if rebalance < 1.6*static {
		t.Errorf("weighted rebalance: rebalance %.3f Gbps, static %.3f Gbps, want >= 1.6x", rebalance, static)
	}

	const reallocHorizon = 100 * sim.Millisecond
	fixed, realloc := AblationReallocator(false, reallocHorizon), AblationReallocator(true, reallocHorizon)
	if realloc < 1.4*fixed {
		t.Errorf("reallocator: realloc %.3f Gbps, static %.3f Gbps, want >= 1.4x", realloc, fixed)
	}

	small, full := AblationAQLimit(4_000, horizon), AblationAQLimit(400_000, horizon)
	if small >= full {
		t.Errorf("AQ limit: 4 KB gives %.3f Gbps, 400 KB %.3f Gbps, want the small limit below", small, full)
	}
	if full < 4.5 {
		t.Errorf("AQ limit: 400 KB gives %.3f Gbps of the 5 Gbps guarantee, want >= 4.5", full)
	}
	t.Logf("strict %.3f bypass %.3f | static %.3f rebalance %.3f | static %.3f realloc %.3f | 4KB %.3f 400KB %.3f",
		strict, bypass, static, rebalance, fixed, realloc, small, full)
}
