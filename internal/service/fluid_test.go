package service

import (
	"encoding/json"
	"math"
	"testing"

	"aqueue/internal/control"
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

// TestSecondFluidDriverRefused: a second live fluid driver would run its
// own lane on the trunk, blind to the first one's fluid, and deliver past
// the trunk's capacity; the wire refuses it with a coded bad_request. A
// detach frees the trunk for the next fluid attach.
func TestSecondFluidDriverRefused(t *testing.T) {
	td := dialService(t, testConfig(), RunConfig{StartPaused: true})
	defer td.done()
	attach := func() control.WireResponse {
		resp, _ := td.cli.Do(control.WireRequest{Op: "attach", V: 2, Kind: "fluid", CC: "fixed", Load: 0.8, Entities: 4})
		return resp
	}
	first := attach()
	if !first.OK {
		t.Fatalf("first fluid attach: %+v", first)
	}
	if resp := attach(); resp.OK || resp.Code != control.CodeBadRequest {
		t.Fatalf("second live fluid attach: %+v, want code %q", resp, control.CodeBadRequest)
	}
	if resp, err := td.cli.Do(control.WireRequest{Op: "detach", V: 2, ID: first.ID}); err != nil || !resp.OK {
		t.Fatalf("detach: %+v err %v", resp, err)
	}
	if resp := attach(); !resp.OK {
		t.Fatalf("fluid attach after the detach: %+v", resp)
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

// TestAttachFluidBoundary shows Lane.AddN's and AddPipe's argument panics
// unreachable from the wire: every attach of kind "fluid", whatever its load,
// entity count or cc, ends in a coded bad_request or in a driver that steps
// and answers stats — whose snapshot, marshalled as JSON, holds no NaN or
// Inf. Loads JSON can carry go over the wire; NaN and ±Inf, which it cannot,
// go through the same dispatcher in process. The largest admissible load is
// the largest whose offered rate is finite, found here from the fabric's
// capacity; the next float above it is refused.
func TestAttachFluidBoundary(t *testing.T) {
	var capacity float64
	{
		f, err := NewFabric(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		capacity = float64(f.Capacity())
	}
	largest := math.MaxFloat64 / capacity
	for largest*capacity > math.MaxFloat64 {
		largest = math.Nextafter(largest, 0)
	}
	above := math.Nextafter(largest, math.Inf(1))
	for above*capacity <= math.MaxFloat64 {
		largest, above = above, math.Nextafter(above, math.Inf(1))
	}
	for _, tc := range []struct {
		name     string
		load     float64
		entities int
		cc       string
		ok       bool
	}{
		{"load NaN", math.NaN(), 4, "", false},
		{"load +Inf", math.Inf(1), 4, "", false},
		{"load -Inf", math.Inf(-1), 4, "", false},
		{"load 0", 0, 4, "", false},
		{"load negative", -0.5, 4, "", false},
		{"load 1e308", 1e308, 4, "", false},
		{"load above the largest admissible", above, 1, "", false},
		{"load largest admissible, one entity", largest, 1, "", true},
		{"load largest admissible, fixed", largest, 4, "fixed", true},
		{"entities 0", 0.5, 0, "", true},
		{"entities 1", 0.5, 1, "", true},
		{"entities MaxFluidEntities", 0.5, MaxFluidEntities, "fixed", true},
		{"entities MaxFluidEntities+1", 0.5, MaxFluidEntities + 1, "", false},
		{"unknown cc", 0.5, 4, "no-such-cc", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			td := dialService(t, testConfig(), RunConfig{StartPaused: true})
			defer td.done()
			do := func(req control.WireRequest) control.WireResponse {
				req.V = 2
				if math.IsNaN(req.Load) || math.IsInf(req.Load, 0) {
					var resp control.WireResponse
					td.s.Handler()(req, func(r control.WireResponse) bool { resp = r; return true })
					return resp
				}
				resp, err := td.cli.Do(req)
				if err != nil && resp.Code == "" {
					t.Fatalf("%s: %v", req.Op, err)
				}
				return resp
			}
			g := do(control.WireRequest{Op: "grant", Tenant: "bg", Mode: "weighted", Weight: 1, Switch: "S1"})
			if !g.OK {
				t.Fatalf("grant: %+v", g)
			}
			resp := do(control.WireRequest{Op: "attach", ID: g.ID, Kind: "fluid", Load: tc.load, Entities: tc.entities, CC: tc.cc})
			if !tc.ok {
				if resp.OK || resp.Code != control.CodeBadRequest {
					t.Fatalf("attach: %+v, want code %q", resp, control.CodeBadRequest)
				}
				return
			}
			if !resp.OK {
				t.Fatalf("attach: %+v, want a driver", resp)
			}
			if step := do(control.WireRequest{Op: "step", Count: 2}); !step.OK {
				t.Fatalf("step: %+v", step)
			}
			stats := do(control.WireRequest{Op: "stats"})
			var reply StatsReply
			if !stats.OK || json.Unmarshal(stats.Data, &reply) != nil {
				t.Fatalf("stats: %+v", stats)
			}
			want := max(tc.entities, 1)
			if reply.Window != 2 || len(reply.Drivers) != 1 || reply.Drivers[0].Entities != want || !(reply.Drivers[0].EntityEpochs > 0) {
				t.Fatalf("after two windows: window %d, drivers %+v; want window 2 and one driver of %d entities stepping",
					reply.Window, reply.Drivers, want)
			}
		})
	}
}
