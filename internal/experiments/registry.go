package experiments

import (
	"aqueue/internal/harness"
	"aqueue/internal/sim"
)

// DefaultParams returns the full-scale §5 parameter set (400 ms horizon,
// 150 flows per entity, seed 1); quick selects the reduced workload the
// old -quick flag used.
func DefaultParams(quick bool) harness.Params {
	p := harness.Params{Horizon: 400 * sim.Millisecond, Flows: 150, Seed: 1, Quick: quick}
	if quick {
		p.Horizon = 120 * sim.Millisecond
		p.Flows = 40
	}
	return p
}

// withDefaults fills zero-valued knobs from DefaultParams so callers can
// set only what they care about.
func withDefaults(p harness.Params) harness.Params {
	d := DefaultParams(p.Quick)
	if p.Horizon <= 0 {
		p.Horizon = d.Horizon
	}
	if p.Flows <= 0 {
		p.Flows = d.Flows
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	return p
}

// tables is shorthand for a Result that is purely rendered tables.
func tables(ts ...*harness.Table) *harness.Result { return &harness.Result{Tables: ts} }

// init registers every figure and table of the paper's evaluation plus the
// repo's extensions, in the paper's presentation order, each seeing its
// params with the zero-valued knobs filled. cmd/aqsim lists and dispatches
// from this registry.
func init() {
	for _, e := range []struct {
		name, desc string
		run        harness.Run
	}{
		{"fig1", "CC interference in one shared physical queue (motivation)", Fig1},
		{"fig3", "strawman D(t) vs A-Gap under an aggressive rate controller", Fig3Experiment},
		{"fig6", "workload completion time vs number of VMs per entity", Fig6},
		{"fig7", "entity fairness vs number of VMs per entity", Fig7},
		{"fig8", "isolation vs per-entity flow count", Fig8},
		{"fig9", "staggered TCP and UDP entities joining the bottleneck", Fig9},
		{"fig10", "mixed-CC workloads: fairness and total throughput", Fig10},
		{"fig11", "switch resource usage of the AQ pipelines", Fig11},
		{"fig12", "switch memory vs number of deployed AQs", Fig12},
		{"table2", "cross-CC sharing under PQ/AQ/PRL/DRL", Table2},
		{"table3", "VM bandwidth guarantees on the testbed star", Table3},
		{"table4", "AQ vs PQ behaviour preservation per CC", Table4},
		{"extfabric", "leaf-spine extension: ECMP isolation and incast", ExtFabric},
		{"extqueues", "per-entity DRR queues vs AQ at scale", ExtQueues},
		{"fluidbg", "fluid-background fidelity: foreground guarantees vs all-packet baseline", FluidBGExperiment},
		{"churn", "runtime tenant churn through the fabric service (aqsimd path)", Churn},
	} {
		harness.Register(e.name, e.desc, func(p harness.Params) *harness.Result {
			return e.run(withDefaults(p))
		})
	}
}
