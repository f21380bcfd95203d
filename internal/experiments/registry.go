package experiments

import (
	"sync"

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

var (
	descMu sync.RWMutex
	descs  = map[string]string{}
)

// Description returns the one-line summary of a registered experiment.
func Description(name string) string {
	descMu.RLock()
	defer descMu.RUnlock()
	return descs[name]
}

// register wires one experiment into the harness registry with its
// description, normalizing params before the runner sees them.
func register(name, desc string, fn func(harness.Params) (*harness.Result, error)) {
	descMu.Lock()
	descs[name] = desc
	descMu.Unlock()
	harness.Register(harness.NewFunc(name, func(p harness.Params) (*harness.Result, error) {
		return fn(withDefaults(p))
	}))
}

// tables is shorthand for a Result that is purely rendered tables.
func tables(ts ...*harness.Table) *harness.Result { return &harness.Result{Tables: ts} }

// init registers every figure and table of the paper's evaluation plus the
// repo's extensions, in the paper's presentation order. cmd/aqsim lists
// and dispatches from this registry.
func init() {
	register("fig1", "CC interference in one shared physical queue (motivation)",
		func(p harness.Params) (*harness.Result, error) {
			return tables(Fig1(p.Horizon, p.Domains, p.Parallel)), nil
		})
	register("fig3", "strawman D(t) vs A-Gap under an aggressive rate controller",
		func(p harness.Params) (*harness.Result, error) {
			r := Fig3(8)
			res := tables(Fig3Table(8))
			res.Metrics = map[string]float64{
				"strawman_peak_gbps": r.PeaksD[len(r.PeaksD)-1],
				"agap_peak_gbps":     r.PeaksA[len(r.PeaksA)-1],
			}
			return res, nil
		})
	register("fig6", "workload completion time vs number of VMs per entity",
		func(p harness.Params) (*harness.Result, error) {
			return tables(Fig6(nil, p.Flows, p.Seed, p.Domains, p.Parallel)), nil
		})
	register("fig7", "entity fairness vs number of VMs per entity",
		func(p harness.Params) (*harness.Result, error) {
			return tables(Fig7(nil, p.Flows, p.Seed, p.Domains, p.Parallel)), nil
		})
	register("fig8", "isolation vs per-entity flow count",
		func(p harness.Params) (*harness.Result, error) {
			return tables(Fig8(nil, p.Horizon, p.Domains, p.Parallel)), nil
		})
	register("fig9", "staggered TCP and UDP entities joining the bottleneck",
		func(p harness.Params) (*harness.Result, error) {
			a, b := Fig9(p.Horizon/4, p.Domains, p.Parallel)
			return tables(a, b), nil
		})
	register("fig10", "mixed-CC workloads: fairness and total throughput",
		func(p harness.Params) (*harness.Result, error) {
			fair, total := Fig10(p.Flows, p.Seed, p.Domains, p.Parallel)
			return tables(fair, total), nil
		})
	register("fig11", "switch resource usage of the AQ pipelines",
		func(p harness.Params) (*harness.Result, error) {
			return tables(Fig11()), nil
		})
	register("fig12", "switch memory vs number of deployed AQs",
		func(p harness.Params) (*harness.Result, error) {
			return tables(Fig12()), nil
		})
	register("table2", "cross-CC sharing under PQ/AQ/PRL/DRL",
		func(p harness.Params) (*harness.Result, error) {
			return tables(Table2(p.Horizon, p.Domains, p.Parallel)), nil
		})
	register("table3", "VM bandwidth guarantees on the testbed star",
		func(p harness.Params) (*harness.Result, error) {
			return tables(Table3(p.Domains, p.Parallel)), nil
		})
	register("table4", "AQ vs PQ behaviour preservation per CC",
		func(p harness.Params) (*harness.Result, error) {
			t, rows := Table4(p.Domains, p.Parallel)
			res := tables(t)
			res.Metrics = map[string]float64{}
			for _, r := range rows {
				res.Metrics["p95_rel_pct."+r.CC] = r.RelP95DeltaPct
				res.Metrics["thpt_delta_pct."+r.CC] = r.ThroughputDelta
			}
			return res, nil
		})
	register("extfabric", "leaf-spine extension: ECMP isolation and incast",
		func(p harness.Params) (*harness.Result, error) {
			return tables(ExtFabric(p.Horizon, p.Domains, p.Parallel)), nil
		})
	register("extqueues", "per-entity DRR queues vs AQ at scale",
		func(p harness.Params) (*harness.Result, error) {
			return tables(ExtPerQueueTable(p.Horizon, p.Domains, p.Parallel)), nil
		})
	register("fluidbg", "fluid-background fidelity: foreground guarantees vs all-packet baseline",
		func(p harness.Params) (*harness.Result, error) {
			r := FluidBG(p.Horizon, p.Flows, p.Seed, p.Domains, p.Parallel)
			res := tables(FluidBGTable(r))
			res.Metrics = map[string]float64{
				"guarantee_delta_pct":  r.GuaranteeDeltaPct,
				"jain_delta_pct":       r.JainDeltaPct,
				"completion_delta_pct": r.CompletionDeltaPct,
			}
			return res, nil
		})
	register("churn", "runtime tenant churn through the fabric service (aqsimd path)",
		func(p harness.Params) (*harness.Result, error) {
			phases, final := Churn(p.Horizon, p.Domains, p.Parallel)
			return tables(phases, final), nil
		})
}
