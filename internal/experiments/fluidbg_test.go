package experiments

import (
	"testing"

	"aqueue/internal/harness"
	"aqueue/internal/sim"
)

// TestFluidBGFidelityGate is the fidelity gate of the hybrid fluid/packet
// split: foreground guarantee precision, Jain fairness and workload
// completion under a fluid background must sit within FluidBGTolerancePct
// of the all-packet baseline. CI runs this by name under -race.
func TestFluidBGFidelityGate(t *testing.T) {
	r := FluidBG(harness.Params{Horizon: 60 * sim.Millisecond, Flows: 12, Seed: 1})
	if r.GuaranteeDeltaPct > FluidBGTolerancePct {
		t.Errorf("guarantee delta %.2f%% exceeds %.1f%% (pkt %v vs fluid %v)",
			r.GuaranteeDeltaPct, FluidBGTolerancePct, r.GoodputPkt, r.GoodputFluid)
	}
	if r.JainDeltaPct > FluidBGTolerancePct {
		t.Errorf("Jain delta %.2f%% exceeds %.1f%% (pkt %.4f vs fluid %.4f)",
			r.JainDeltaPct, FluidBGTolerancePct, r.JainPkt, r.JainFluid)
	}
	if r.CompletionDeltaPct > FluidBGTolerancePct {
		t.Errorf("completion delta %.2f%% exceeds %.1f%% (pkt %v vs fluid %v)",
			r.CompletionDeltaPct, FluidBGTolerancePct, r.CompletionPkt, r.CompletionFluid)
	}
	// Sanity: the guarantee scenario must actually have loaded the link —
	// every foreground entity near its 2.5 Gbps share in both variants.
	for i, g := range r.GoodputPkt {
		if g < 1.5 {
			t.Errorf("packet-bg fg-%d goodput %.2f Gbps: scenario underloaded", i, g)
		}
	}
}

// TestFluidBGDomainParity: the fluid lane is domain-local, so the paired
// scenarios must produce identical results for any partitioning.
func TestFluidBGDomainParity(t *testing.T) {
	p := harness.Params{Horizon: 30 * sim.Millisecond, Flows: 6, Seed: 1}
	base := FluidBG(p)
	for _, domains := range []int{2, 4} {
		p.Domains = domains
		got := FluidBG(p)
		if len(got.GoodputPkt) != len(base.GoodputPkt) || len(got.GoodputFluid) != len(base.GoodputFluid) {
			t.Fatalf("domains=%d: result shape changed", domains)
		}
		for i := range base.GoodputPkt {
			if got.GoodputPkt[i] != base.GoodputPkt[i] || got.GoodputFluid[i] != base.GoodputFluid[i] {
				t.Errorf("domains=%d: fg-%d goodput diverged: %v vs %v / %v vs %v",
					domains, i, got.GoodputPkt[i], base.GoodputPkt[i],
					got.GoodputFluid[i], base.GoodputFluid[i])
			}
		}
		if got.CompletionPkt != base.CompletionPkt || got.CompletionFluid != base.CompletionFluid {
			t.Errorf("domains=%d: completion diverged: %v/%v vs %v/%v",
				domains, got.CompletionPkt, got.CompletionFluid,
				base.CompletionPkt, base.CompletionFluid)
		}
	}
}
