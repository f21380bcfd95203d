package ratelimit

import (
	"testing"
	"testing/quick"

	"aqueue/internal/control"
)

func TestWaterfillProperties(t *testing.T) {
	// Properties: (1) Σalloc ≤ capacity, (2) alloc_i ≤ demand_i,
	// (3) if Σdemand ≤ capacity everyone is fully satisfied,
	// (4) max-min: an unsatisfied entity's allocation is ≥ every satisfied
	//     entity's allocation... (weaker check: unsatisfied allocations are
	//     all equal to the water level within epsilon).
	f := func(rawC uint16, raw []uint16) bool {
		c := float64(rawC) + 1
		demands := make([]float64, len(raw))
		var sum float64
		for i, v := range raw {
			demands[i] = float64(v)
			sum += demands[i]
		}
		out := control.Waterfill(c, demands, nil)
		var total float64
		level := -1.0
		for i, a := range out {
			if a > demands[i]+1e-9 {
				return false
			}
			total += a
			if a < demands[i]-1e-9 { // unsatisfied -> at the water level
				if level < 0 {
					level = a
				} else if a < level-1e-6 || a > level+1e-6 {
					return false
				}
			}
		}
		if total > c+1e-6 {
			return false
		}
		if sum <= c && total < sum-1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDRLGuaranteeTier(t *testing.T) {
	// With OutMin guarantees, a newly active pair's initial rate reflects
	// its guarantee, not the bootstrap floor.
	// (Integration coverage for the guarantee tier lives in the
	// experiments package; this checks initialRate arithmetic.)
	d := NewDRL(nil, 10e9, DefaultInterval)
	// No VMs registered: capacity-based split.
	if got := d.initialRate(pairKey{1, 2}); got != 10e9*1.0 {
		t.Fatalf("initialRate without profiles = %v", got)
	}
}
