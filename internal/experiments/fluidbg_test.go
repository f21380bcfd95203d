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
