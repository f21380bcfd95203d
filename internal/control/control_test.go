package control

import (
	"errors"
	"math"
	"testing"

	"aqueue/internal/core"
	"aqueue/internal/units"
)

func TestAbsoluteAdmission(t *testing.T) {
	c := NewController(10 * units.Gbps)
	tbl := core.NewTable()
	g1, err := c.Grant(Request{Tenant: "a", Mode: Absolute, Bandwidth: 6 * units.Gbps}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Rate != 6*units.Gbps {
		t.Fatalf("granted rate %v", g1.Rate)
	}
	if tbl.Lookup(g1.ID) == nil {
		t.Fatal("AQ not deployed")
	}
	// A second 6G absolute grant exceeds the 10G link.
	if _, err := c.Grant(Request{Tenant: "b", Mode: Absolute, Bandwidth: 6 * units.Gbps}, tbl); !errors.Is(err, ErrInsufficientBandwidth) {
		t.Fatalf("overcommit not rejected: %v", err)
	}
	// 4G fits.
	if _, err := c.Grant(Request{Tenant: "b", Mode: Absolute, Bandwidth: 4 * units.Gbps}, tbl); err != nil {
		t.Fatal(err)
	}
	// Release frees capacity.
	c.Release(g1.ID)
	if tbl.Lookup(g1.ID) != nil {
		t.Fatal("AQ not removed on release")
	}
	if _, err := c.Grant(Request{Tenant: "c", Mode: Absolute, Bandwidth: 6 * units.Gbps}, tbl); err != nil {
		t.Fatalf("capacity not freed: %v", err)
	}
}

func TestWeightedRebalance(t *testing.T) {
	c := NewController(10 * units.Gbps)
	tbl := core.NewTable()
	g1, _ := c.Grant(Request{Tenant: "a", Mode: Weighted, Weight: 1}, tbl)
	if got := c.Rate(g1.ID); got != 10*units.Gbps {
		t.Fatalf("single weighted entity rate %v, want full link", got)
	}
	g2, _ := c.Grant(Request{Tenant: "b", Mode: Weighted, Weight: 1}, tbl)
	if got := c.Rate(g1.ID); got != 5*units.Gbps {
		t.Fatalf("rate after second grant %v, want 5G", got)
	}
	// Weights 1:2 - wait, regrant b with weight 3 → shares 1:3.
	c.Release(g2.ID)
	g3, _ := c.Grant(Request{Tenant: "b", Mode: Weighted, Weight: 3}, tbl)
	if got := c.Rate(g1.ID); math.Abs(float64(got)-2.5e9) > 1 {
		t.Fatalf("weighted 1:3 rate %v, want 2.5G", got)
	}
	if got := c.Rate(g3.ID); math.Abs(float64(got)-7.5e9) > 1 {
		t.Fatalf("weighted 1:3 rate %v, want 7.5G", got)
	}
	// The deployed AQ object tracks the rebalanced rate.
	if got := tbl.Lookup(g1.ID).Rate(); math.Abs(float64(got)-2.5e9) > 1 {
		t.Fatalf("deployed AQ rate %v", got)
	}
}

func TestWeightedActiveSet(t *testing.T) {
	// Fig. 9 behaviour: as entities go idle/active, the active ones share.
	c := NewController(10 * units.Gbps)
	tbl := core.NewTable()
	var ids []Grant
	for i := 0; i < 5; i++ {
		g, err := c.Grant(Request{Tenant: "e", Mode: Weighted, Weight: 1}, tbl)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, g)
	}
	if got := c.Rate(ids[0].ID); got != 2*units.Gbps {
		t.Fatalf("5 active: %v, want 2G", got)
	}
	c.SetActive(ids[3].ID, false)
	c.SetActive(ids[4].ID, false)
	if got := c.Rate(ids[0].ID); math.Abs(float64(got)-10e9/3) > 1 {
		t.Fatalf("3 active: %v, want 3.33G", got)
	}
	c.SetActive(ids[3].ID, true)
	if got := c.Rate(ids[0].ID); got != 2.5*units.Gbps {
		t.Fatalf("4 active: %v, want 2.5G", got)
	}
}

func TestMixedModeRebalance(t *testing.T) {
	c := NewController(10 * units.Gbps)
	tbl := core.NewTable()
	if _, err := c.Grant(Request{Tenant: "res", Mode: Absolute, Bandwidth: 4 * units.Gbps}, tbl); err != nil {
		t.Fatal(err)
	}
	g, _ := c.Grant(Request{Tenant: "w", Mode: Weighted, Weight: 1}, tbl)
	if got := c.Rate(g.ID); got != 6*units.Gbps {
		t.Fatalf("weighted share with 4G reserved = %v, want 6G", got)
	}
}

func TestBadRequests(t *testing.T) {
	c := NewController(10 * units.Gbps)
	tbl := core.NewTable()
	if _, err := c.Grant(Request{Mode: Absolute}, tbl); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero-bandwidth absolute: %v", err)
	}
	if _, err := c.Grant(Request{Mode: Weighted}, tbl); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero-weight weighted: %v", err)
	}
	if _, err := c.Grant(Request{Mode: Absolute, Bandwidth: units.Gbps}, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("nil table: %v", err)
	}
}

// TestWeightOverflowRefused: a weight whose product with the link capacity
// overflows float64 is refused by Grant and SetGuarantee alike, before it
// touches a grant. Admitted, rebalancing put avail·w/total = +Inf (or, with
// two such weights, Inf/Inf = NaN) into the deployed rate, which the wire
// reply and the next fingerprinted snapshot could no longer encode. The
// largest weights that stay finite are still admitted and shared exactly.
func TestWeightOverflowRefused(t *testing.T) {
	c := NewController(10 * units.Gbps)
	tbl := core.NewTable()
	g, err := c.Grant(Request{Tenant: "a", Mode: Weighted, Weight: 1}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{1e308, math.MaxFloat64, math.Inf(1), math.NaN()} {
		if _, err := c.Grant(Request{Tenant: "b", Mode: Weighted, Weight: w}, tbl); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Grant weight %g: %v, want ErrBadRequest", w, err)
		}
		if _, err := c.SetGuarantee(g.ID, 0, w); !errors.Is(err, ErrBadRequest) {
			t.Errorf("SetGuarantee weight %g: %v, want ErrBadRequest", w, err)
		}
	}
	if ids := c.Grants(); len(ids) != 1 || c.Rate(g.ID) != 10*units.Gbps {
		t.Fatalf("after the refusals: grants %v, rate %v; want the one grant at 10G", ids, c.Rate(g.ID))
	}
	// 1e298 · 10e9 = 1e308 is finite: two such weights split the link.
	if _, err := c.SetGuarantee(g.ID, 0, 1e298); err != nil {
		t.Fatal(err)
	}
	h, err := c.Grant(Request{Tenant: "b", Mode: Weighted, Weight: 1e298}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := c.Rate(g.ID), c.Rate(h.ID); a != 5*units.Gbps || b != 5*units.Gbps {
		t.Fatalf("two weights of 1e298 share %v / %v, want 5G each", a, b)
	}
}

func TestUniqueIDs(t *testing.T) {
	c := NewController(units.Tbps)
	tbl := core.NewTable()
	seen := map[uint32]bool{}
	for i := 0; i < 100; i++ {
		g, err := c.Grant(Request{Mode: Absolute, Bandwidth: units.Mbps}, tbl)
		if err != nil {
			t.Fatal(err)
		}
		if seen[uint32(g.ID)] {
			t.Fatal("duplicate AQ ID")
		}
		seen[uint32(g.ID)] = true
	}
	if got := len(c.Grants()); got != 100 {
		t.Fatalf("Grants() = %d", got)
	}
}

func TestWireProtocolOverTCP(t *testing.T) {
	ctrl, tbl, addr := serveController(t, 10*units.Gbps)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	resp, err := cli.Do(WireRequest{Op: "grant", Tenant: "t1", Mode: "weighted",
		Weight: 1, CC: "ecn", Position: "ingress", Switch: "S1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID == 0 || resp.Rate != 10e9 {
		t.Fatalf("grant response %+v", resp)
	}
	if got := tbl.Len(); got != 1 {
		t.Fatalf("table has %d AQs", got)
	}
	// Second weighted grant rebalances to 5G each.
	resp2, err := cli.Do(WireRequest{Op: "grant", Tenant: "t2", Mode: "weighted",
		Weight: 1, Position: "ingress", Switch: "S1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Rate != 5e9 {
		t.Fatalf("second grant rate %v", resp2.Rate)
	}
	// set_active false on t2 gives t1 everything again.
	off := false
	if _, err := cli.Do(WireRequest{Op: "set_active", ID: resp2.ID, Active: &off}); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Rate(1); got != 10*units.Gbps {
		t.Fatalf("rate after idle = %v", got)
	}
	// list returns both grants.
	lr, err := cli.Do(WireRequest{Op: "list"})
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.IDs) != 2 {
		t.Fatalf("list = %v", lr.IDs)
	}
	// Unknown op errors but keeps the connection usable.
	if _, err := cli.Do(WireRequest{Op: "bogus"}); err == nil {
		t.Fatal("bogus op accepted")
	}
	if _, err := cli.Do(WireRequest{Op: "release", ID: resp2.ID}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != 1 {
		t.Fatalf("table has %d AQs after release", got)
	}
	// Unknown switch errors cleanly.
	if _, err := cli.Do(WireRequest{Op: "grant", Mode: "absolute", Bandwidth: 1e9,
		Switch: "nope"}); err == nil {
		t.Fatal("unknown switch accepted")
	}
}
