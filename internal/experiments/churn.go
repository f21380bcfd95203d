package experiments

import (
	"fmt"

	"aqueue/internal/control"
	"aqueue/internal/harness"
	"aqueue/internal/service"
)

// Churn exercises the fabric-service mutation path as an experiment: a
// dumbbell run where tenants are granted, loaded, reconfigured, and torn
// down at fixed window boundaries through internal/service — the same
// code path cmd/aqsimd drives over the wire. Because every mutation lands
// exactly on its scripted boundary, the whole run (including its
// rendered tables) is deterministic and rides the harness fingerprint
// gates like any other scenario.
//
// The script, over 20 equal windows:
//
//	w0:  tenant A — weighted 1, websearch at 0.4 load
//	w5:  tenant B — weighted 2, fixed 50 KB flows at 0.3 load
//	w10: A's weight raised to 3 (live reconfiguration)
//	w15: B detached and marked idle (A absorbs the link)
func Churn(p harness.Params) *harness.Result {
	const windows = 20
	f, err := service.NewFabric(service.Config{
		Hosts:    4,
		Window:   p.Horizon / windows,
		TraceLen: 0, // traces are for the daemon; experiments stay lean
	})
	if err != nil {
		panic(err)
	}
	grant := func(f *service.Fabric, tenant string, weight float64) *service.Driver {
		id := mustGrant(f.Ctrl(), control.Request{
			Tenant: tenant, Mode: control.Weighted, Weight: weight,
			Limit: aqLimitFor(f.Config().Trunk),
		}, f.LookupTable("S1", control.Ingress))
		spec := service.LoadSpec{Tenant: tenant, AQ: id, Kind: "websearch", Load: 0.4}
		if tenant == "B" {
			spec = service.LoadSpec{Tenant: tenant, AQ: id, Kind: "fixed", Size: 50_000, Load: 0.3}
		}
		d, err := f.Attach(spec)
		if err != nil {
			panic(err)
		}
		return d
	}
	var driverB uint32
	f.ScriptAt(0, func(f *service.Fabric) { grant(f, "A", 1) })
	f.ScriptAt(5, func(f *service.Fabric) { driverB = grant(f, "B", 2).ID })
	f.ScriptAt(10, func(f *service.Fabric) {
		if _, err := f.Ctrl().SetGuarantee(1, 0, 3); err != nil {
			panic(err)
		}
	})
	f.ScriptAt(15, func(f *service.Fabric) {
		if !f.Detach(driverB) {
			panic("churn: detach of driver B missed")
		}
		if !f.Ctrl().SetActive(2, false) {
			panic("churn: idling tenant B missed")
		}
	})

	// Advance window by window, accumulating per-phase bottleneck
	// throughput (phases = the four script epochs, 5 windows each).
	const perPhase = windows / 4
	var phaseGbps [4]float64
	var snap service.Snapshot
	for w := 0; w < windows; w++ {
		snap = f.AdvanceWindow()
		for _, pipe := range snap.Pipes {
			if pipe.Name == "S1->S2" {
				phaseGbps[w/perPhase] += pipe.Gbps / perPhase
			}
		}
	}

	phases := &harness.Table{
		Title:  "Service churn: bottleneck throughput per script phase (Gbps)",
		Header: []string{"phase", "windows", "tenants", "bottleneck Gbps"},
	}
	labels := []string{"A@1", "A@1 + B@2", "A@3 + B@2", "A@3 (B detached)"}
	for i, g := range phaseGbps {
		phases.AddRow(fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d-%d", i*perPhase, (i+1)*perPhase-1), labels[i], g)
	}

	final := &harness.Table{
		Title:  "Service churn: final tenant and driver state",
		Header: []string{"tenant", "mode", "weight", "active", "aq arrived", "flows started", "flows done"},
	}
	drivers := map[string]service.DriverSnap{}
	for _, d := range snap.Drivers {
		drivers[d.Tenant] = d
	}
	for _, g := range snap.Tenants {
		d := drivers[g.Tenant]
		final.AddRow(g.Tenant, g.Mode, g.Weight, g.Active, g.AQ.Arrived, d.Started, d.Completed)
	}
	return tables(phases, final)
}
