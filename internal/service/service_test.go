package service

import (
	"sync"
	"testing"

	"aqueue/internal/cc"
	"aqueue/internal/control"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// testConfig is a small, fast fabric: 2x2 dumbbell, 200 us windows.
func testConfig() Config {
	return Config{Hosts: 2, Window: 200 * sim.Microsecond, TraceLen: 256}
}

func grantWeighted(t *testing.T, f *Fabric, tenant string, weight float64) packet.AQID {
	t.Helper()
	g, err := f.Ctrl().Grant(control.Request{
		Tenant: tenant, Mode: control.Weighted, Weight: weight,
		Limit: f.Config().Trunk.QueueLimit,
	}, f.LookupTable("S1", control.Ingress))
	if err != nil {
		t.Fatalf("grant: %v", err)
	}
	return g.ID
}

func TestFabricWindowedAdvance(t *testing.T) {
	f, err := NewFabric(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	id := grantWeighted(t, f, "t1", 1)
	d, err := f.Attach(LoadSpec{Tenant: "t1", AQ: id, Kind: "fixed", Size: 20_000, Load: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	var snap Snapshot
	for i := 0; i < 20; i++ {
		snap = f.AdvanceWindow()
		if want := uint64(i + 1); snap.Window != want {
			t.Fatalf("window %d, want %d", snap.Window, want)
		}
		if snap.NowNS != int64(snap.Window)*int64(f.Config().Window) {
			t.Fatalf("now %d not on boundary %d", snap.NowNS, snap.Window)
		}
	}
	if d.Snap().Started == 0 {
		t.Fatal("driver started no flows in 4 ms at load 0.5")
	}
	if len(snap.Tenants) != 1 || snap.Tenants[0].ID != id {
		t.Fatalf("tenants: %+v", snap.Tenants)
	}
	if snap.Tenants[0].AQ.Arrived == 0 {
		t.Fatal("granted AQ matched no packets — tagging broken")
	}
	var bottleneck PipeSnap
	for _, p := range snap.Pipes {
		if p.Name == "S1->S2" {
			bottleneck = p
		}
	}
	if bottleneck.TxBytes == 0 {
		t.Fatal("no bytes crossed the bottleneck")
	}
	if f.TraceTail(10) == nil {
		t.Fatal("trace ring empty with tracing enabled")
	}

	if !f.Detach(d.ID) {
		t.Fatal("detach of live driver failed")
	}
	if f.Detach(d.ID) {
		t.Fatal("second detach must miss")
	}
	started := d.Snap().Started
	for i := 0; i < 5; i++ {
		f.AdvanceWindow()
	}
	if d.Snap().Started != started {
		t.Fatal("detached driver kept starting flows")
	}
}

func TestFabricStarTopology(t *testing.T) {
	cfg := testConfig()
	cfg.Topo = "star"
	cfg.Hosts = 4
	f, err := NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.LookupTable("SW", control.Ingress) == nil {
		t.Fatal("star switch tables not registered")
	}
	if _, err := f.Attach(LoadSpec{Kind: "fixed", Size: 20_000, Load: 0.3}); err != nil {
		t.Fatal(err)
	}
	snap := f.AdvanceWindow()
	for i := 0; i < 9; i++ {
		snap = f.AdvanceWindow()
	}
	var tx uint64
	for _, p := range snap.Pipes {
		tx += p.TxBytes
	}
	if tx == 0 {
		t.Fatal("no traffic reached the star receivers")
	}

	if _, err := NewFabric(Config{Topo: "star", Hosts: 3}); err == nil {
		t.Fatal("odd star size accepted")
	}
	if _, err := NewFabric(Config{Topo: "ring"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestAttachValidation(t *testing.T) {
	f, err := NewFabric(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := []LoadSpec{
		{Kind: "websearch"},                          // zero load
		{Kind: "bursty", Load: 0.5},                  // unknown kind
		{Kind: "fixed", Load: 0.5},                   // fixed without size
		{Kind: "websearch", Load: 0.5, CC: "osmium"}, // unknown cc
		{Kind: "fluid", Load: 0.5, CC: "cubik"},      // unknown cc must not fall back to a blaster
		{Kind: "fluid", Load: 0.5, Entities: MaxFluidEntities + 1},
		{Kind: "websearch", Load: 1e-14},  // mean inter-arrival past 2^56 ns
		{Kind: "websearch", Load: 1e-300}, // ... and past int64
	}
	for _, spec := range bad {
		if _, err := f.Attach(spec); err == nil {
			t.Fatalf("spec %+v accepted", spec)
		}
	}
	// A tiny load whose mean inter-arrival fits is still admitted.
	if _, err := f.Attach(LoadSpec{Kind: "websearch", Load: 1e-9}); err != nil {
		t.Fatalf("websearch attach at load 1e-9: %v", err)
	}
	// Every name a fluid driver may carry: the fixed-rate spellings and
	// the packet algorithms. One fluid driver is live at a time, so each is
	// detached before the next attach.
	for _, name := range append([]string{"", "udp", "fixed"}, cc.Names()...) {
		d, err := f.Attach(LoadSpec{Kind: "fluid", Load: 0.01, CC: name, Entities: 2})
		if err != nil {
			t.Fatalf("fluid attach with cc %q: %v", name, err)
		}
		f.Detach(d.ID)
	}
}

// TestServiceMailboxBoundaryOnly is the mid-window ordering gate: every
// mutation submitted while the fabric free-runs must execute with the
// clock parked exactly on a window boundary.
func TestServiceMailboxBoundaryOnly(t *testing.T) {
	f, err := NewFabric(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := Start(f, RunConfig{})
	defer s.Quit()

	window := f.Config().Window
	var wg sync.WaitGroup
	offsets := make(chan sim.Time, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				resp := s.Do(func(f *Fabric) control.WireResponse {
					offsets <- f.Now() % window
					return control.WireResponse{OK: true}
				})
				if !resp.OK {
					t.Errorf("mailbox command failed: %+v", resp)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(offsets)
	n := 0
	for off := range offsets {
		n++
		if off != 0 {
			t.Fatalf("mutation executed %d ns into a window", off)
		}
	}
	if n != 64 {
		t.Fatalf("ran %d commands, want 64", n)
	}
}

func TestServiceRunControl(t *testing.T) {
	f, err := NewFabric(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := Start(f, RunConfig{StartPaused: true})

	if !s.Paused() {
		t.Fatal("service did not start paused")
	}
	if err := s.Step(3); err != nil {
		t.Fatal(err)
	}
	if got := s.Latest().Window; got != 3 {
		t.Fatalf("after step 3: window %d", got)
	}

	target := 2 * sim.Millisecond
	if err := s.AdvanceTo(target); err != nil {
		t.Fatal(err)
	}
	if got := s.Latest().NowNS; got < int64(target) {
		t.Fatalf("advance-to stopped at %d ns, want >= %d", got, target)
	}
	if !s.Paused() {
		t.Fatal("advance-to must leave the service paused")
	}
	if err := s.AdvanceTo(sim.Millisecond); err == nil {
		t.Fatal("advance into the past accepted")
	}

	s.Resume()
	if err := s.Step(1); err != ErrNotPaused {
		t.Fatalf("step while running: %v, want ErrNotPaused", err)
	}
	s.Pause()

	ch, cancel := s.Subscribe()
	defer cancel()
	if err := s.Step(2); err != nil {
		t.Fatal(err)
	}
	first := <-ch
	second := <-ch
	if second.Window != first.Window+1 {
		t.Fatalf("subscriber saw windows %d then %d", first.Window, second.Window)
	}

	s.Quit()
	if err := s.Step(1); err != ErrShuttingDown {
		t.Fatalf("step after quit: %v, want ErrShuttingDown", err)
	}
	resp := s.Do(func(*Fabric) control.WireResponse { return control.WireResponse{OK: true} })
	if resp.Code != control.CodeShuttingDown {
		t.Fatalf("Do after quit: %+v", resp)
	}
}
