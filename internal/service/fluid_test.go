package service

import (
	"testing"
)

// TestFabricFluidDriver attaches a kind "fluid" background to the fabric:
// entities must advance at epochs inside the windows, deliver bytes
// through the granted AQ, surface in driver snapshots, and stop (releasing
// the trunk's residual coupling) on detach.
func TestFabricFluidDriver(t *testing.T) {
	f, err := NewFabric(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	id := grantWeighted(t, f, "bg", 1)
	d, err := f.Attach(LoadSpec{Tenant: "bg", AQ: id, Kind: "fluid", Load: 0.8, Entities: 50})
	if err != nil {
		t.Fatal(err)
	}

	var snap Snapshot
	for i := 0; i < 10; i++ {
		snap = f.AdvanceWindow()
	}
	ds := d.Snap()
	if ds.Entities != 50 {
		t.Fatalf("snap entities = %d, want 50", ds.Entities)
	}
	// 10 windows x 200us at the default 100us epoch = 20 epochs each.
	if ds.EntityEpochs != 50*20 {
		t.Fatalf("entity-epochs = %d, want %d", ds.EntityEpochs, 50*20)
	}
	if ds.FluidDelivered <= 0 {
		t.Fatal("fluid driver delivered no bytes")
	}
	if snap.Drivers[0].FluidDelivered != ds.FluidDelivered {
		t.Fatal("snapshot driver entry does not carry the fluid counters")
	}
	// The granted AQ must have integrated the fluid arrivals.
	if len(snap.Tenants) != 1 || snap.Tenants[0].AQ.FluidBytes <= 0 {
		t.Fatalf("granted AQ saw no fluid bytes: %+v", snap.Tenants)
	}

	if !f.Detach(d.ID) {
		t.Fatal("detach of live fluid driver failed")
	}
	delivered := d.Snap().FluidDelivered
	for i := 0; i < 5; i++ {
		f.AdvanceWindow()
	}
	if got := d.Snap().FluidDelivered; got != delivered {
		t.Fatalf("detached fluid driver kept delivering: %.0f -> %.0f", delivered, got)
	}
	if fr := f.fluidPipe.FluidRate(); fr != 0 {
		t.Fatalf("trunk fluid rate %v after detach, want 0 (released)", fr)
	}
}

// TestFabricFluidNeedsDumbbell: the fluid driver anchors on the dumbbell
// bottleneck; other topologies must refuse the attach.
func TestFabricFluidNeedsDumbbell(t *testing.T) {
	cfg := testConfig()
	cfg.Topo = "star"
	cfg.Hosts = 4
	f, err := NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach(LoadSpec{Kind: "fluid", Load: 0.5}); err == nil {
		t.Fatal("star fabric accepted a fluid driver")
	}
}

// TestFabricFluidDeterminism: two runs with the same scripted fluid
// attach/detach must fingerprint identically, and a packet-only run's
// fingerprint must not change because the fluid lane is compiled in.
func TestFabricFluidDeterminism(t *testing.T) {
	run := func() string {
		f, err := NewFabric(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		id := grantWeighted(t, f, "bg", 1)
		f.ScriptAt(2, func(f *Fabric) {
			if _, err := f.Attach(LoadSpec{Tenant: "bg", AQ: id, Kind: "fluid",
				Load: 0.6, Entities: 20, CC: "cubic"}); err != nil {
				t.Errorf("scripted attach: %v", err)
			}
		})
		f.ScriptAt(8, func(f *Fabric) { f.Detach(1) })
		for i := 0; i < 12; i++ {
			f.AdvanceWindow()
		}
		return f.Fingerprint()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("fingerprints differ: %s vs %s", a, b)
	}
}
