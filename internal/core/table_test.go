package core

import (
	"sync"
	"testing"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

func TestTableDeployLookupRemove(t *testing.T) {
	tbl := NewTable()
	aq := tbl.Deploy(Config{ID: 7, Rate: units.Gbps})
	if tbl.Lookup(7) != aq {
		t.Fatal("lookup after deploy failed")
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
	tbl.Remove(7)
	if tbl.Lookup(7) != nil {
		t.Fatal("lookup after remove succeeded")
	}
}

func TestTableProcessUntaggedPasses(t *testing.T) {
	tbl := NewTable()
	tbl.Deploy(Config{ID: 7, Rate: units.Gbps, Limit: 1})
	p := packet.NewData(1, 2, 1, 0, 960)
	if tbl.Process(0, packet.NoAQ, p) != Pass {
		t.Fatal("untagged packet did not pass")
	}
	if tbl.Stats().Lookups != 0 {
		t.Fatal("untagged packet hit the table")
	}
}

func TestTableProcessMissPasses(t *testing.T) {
	tbl := NewTable()
	p := packet.NewData(1, 2, 1, 0, 960)
	if tbl.Process(0, 42, p) != Pass {
		t.Fatal("miss should pass")
	}
	if got := tbl.Stats().Misses; got != 1 {
		t.Fatalf("Misses = %d, want 1", got)
	}
}

func TestTableProcessMatchDrops(t *testing.T) {
	tbl := NewTable()
	tbl.Deploy(Config{ID: 9, Rate: units.Kbps, Limit: 100})
	p := packet.NewData(1, 2, 1, 0, 960)
	if tbl.Process(0, 9, p) != Drop {
		t.Fatal("over-limit packet not dropped by matched AQ")
	}
}

// TestTableCountersConcurrent pins the table's concurrency contract: one
// owner — the engine goroutine — runs Process, and any number of observers
// read Table.Stats while it does (today the service loop at window
// boundaries and bench after a run; the contract admits a reader while
// traffic flows). Under -race the readers must not
// race the writer, every snapshot they take must be monotone, and the
// final counts are exact. Concurrent Process on one table is NOT part of
// the contract: the A-Gap registers are plain fields, and each AQ lives on
// exactly one engine.
func TestTableCountersConcurrent(t *testing.T) {
	tbl := NewTable()
	tbl.Deploy(Config{ID: 1, Rate: units.Gbps, Limit: 1 << 30})
	const readers, rounds = 4, 4000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last TableStats
			for {
				s := tbl.Stats()
				if s.Lookups < last.Lookups || s.Misses < last.Misses {
					t.Errorf("Stats went backwards: %+v after %+v", s, last)
					return
				}
				last = s
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	p := packet.NewData(1, 2, 1, 0, 960)
	for i := 0; i < rounds; i++ {
		tbl.Process(sim.Time(i), 1, p)
		tbl.Process(sim.Time(i), 42, p) // miss
	}
	close(stop)
	wg.Wait()
	if s := tbl.Stats(); s.Lookups != 2*rounds || s.Misses != rounds {
		t.Fatalf("Stats = %+v, want %d lookups, %d misses", s, 2*rounds, rounds)
	}
	if a := tbl.Lookup(1).Stats(); a.Arrived != rounds {
		t.Fatalf("AQ arrived = %d, want %d", a.Arrived, rounds)
	}
}

// TestTableLayoutFlipsDenseMapDense walks one table through the layouts the
// way production reaches them — a deploy at a far-away ID leaves the dense
// range, removing it restores it — and checks at every stage that lookups
// resolve hits, misses and out-of-range IDs, that the generation ticks on each
// change, and that a BurstCursor and a StreamCursor bound before a flip drop
// their memo instead of serving an AQ pointer from before it.
func TestTableLayoutFlipsDenseMapDense(t *testing.T) {
	const far = packet.AQID(1 << 20)
	tbl := NewTable()
	for id := packet.AQID(1); id <= 8; id++ {
		tbl.Deploy(Config{ID: id, Rate: units.Gbps, Limit: 1 << 30})
	}
	p := packet.NewData(1, 2, 1, 0, 960)
	now := sim.Time(0)

	var bc BurstCursor
	var sc StreamCursor
	bc.Bind(tbl)
	sc.Bind(tbl)

	// check asserts the generation and which IDs resolve, then drives one
	// packet and one fluid run for AQ 3 through the cursors bound at the
	// start: the counters must land on whichever *AQ the table holds now.
	check := func(stage string, farDeployed bool, wantGen uint64) {
		t.Helper()
		if tbl.gen != wantGen {
			t.Fatalf("%s: generation %d, want %d", stage, tbl.gen, wantGen)
		}
		for _, id := range []packet.AQID{0, 1, 3, 8, 9, 500, far, far + 1} {
			want := (id >= 1 && id <= 8) || (id == far && farDeployed)
			if got := tbl.Lookup(id); (got != nil) != want || (got != nil && got.ID() != id) {
				t.Fatalf("%s: Lookup(%d) = %v, want deployed %v", stage, id, got, want)
			}
		}
		aq := tbl.Lookup(3)
		before := aq.Stats().Arrived
		now += 1000
		if v := bc.Process(now, 3, p); v != Pass {
			t.Fatalf("%s: cursor verdict = %v, want Pass", stage, v)
		}
		if got := aq.Stats().Arrived; got != before+1 {
			t.Fatalf("%s: BurstCursor ran a stale AQ: arrived %d → %d on the deployed one", stage, before, got)
		}
		if got := sc.ResolveRun(3, 1); got != aq {
			t.Fatalf("%s: StreamCursor resolved %p, table holds %p", stage, got, aq)
		}
	}

	check("dense", false, 8)

	tbl.Deploy(Config{ID: far, Rate: units.Gbps}) // sparse: the map serves
	check("map after far deploy", true, 9)

	// Replace AQ 3 while on the map layout: the memoized pointer is now
	// stale in both cursors, and only the generation check can tell.
	tbl.Deploy(Config{ID: 3, Rate: units.Gbps, Limit: 1 << 30})
	check("map after redeploy", true, 10)

	tbl.Remove(far) // dense again
	check("dense after far remove", false, 11)

	tbl.Remove(3)
	if got := sc.ResolveRun(3, 1); got != nil {
		t.Fatalf("StreamCursor resolved removed AQ 3 to %p", got)
	}
	if v := bc.Process(now, 3, p); v != Pass {
		t.Fatalf("removed AQ 3 still enforced through the cursor: %v", v)
	}
	bc.Flush()
	sc.Flush()
	if s := tbl.Stats(); s.Lookups != 5 || s.Misses != 1 || s.FluidEpochs != 5 || s.FluidMisses != 1 {
		t.Fatalf("flushed counters = %+v, want 5 lookups / 1 miss on each lane", s)
	}
}

// TestTableDeployBatchLayouts deploys one batch onto each starting layout —
// empty, dense, sparse — and the batches that move a table between them.
// After each: every deployed ID holds the last config the batch gave it,
// absent IDs in range and past it resolve to nil, the generation ticked
// exactly once, and a StreamCursor that memoized a batch ID beforehand
// resolves the new AQ.
func TestTableDeployBatchLayouts(t *testing.T) {
	const far = packet.AQID(1 << 20)
	ids := func(lo, hi packet.AQID) []packet.AQID {
		var out []packet.AQID
		for id := lo; id <= hi; id++ {
			out = append(out, id)
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		before []packet.AQID // deployed one at a time first
		batch  []packet.AQID
	}{
		{"into an empty table", nil, ids(1, 100)},
		{"onto a dense table", ids(1, 8), ids(5, 20)},
		{"onto a sparse table", []packet.AQID{1, 2, far}, ids(10, 20)},
		{"far ID makes it sparse", ids(1, 8), []packet.AQID{9, far}},
		{"far ID into an empty table", nil, []packet.AQID{3, far}},
		{"replaces existing IDs", ids(1, 8), []packet.AQID{2, 7, 2}},
		{"ID 0", nil, []packet.AQID{0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := NewTable()
			for _, id := range tc.before {
				tbl.Deploy(Config{ID: id, Rate: units.Kbps})
			}
			var sc StreamCursor
			sc.Bind(tbl)
			old := sc.ResolveRun(tc.batch[0], 1)
			gen := tbl.gen
			cfgs := make([]Config, len(tc.batch))
			last := map[packet.AQID]units.BitRate{}
			for i, id := range tc.batch {
				cfgs[i] = Config{ID: id, Rate: units.BitRate(i+1) * units.Mbps}
				last[id] = cfgs[i].Rate
			}
			tbl.DeployBatch(cfgs)

			if got := tbl.gen; got != gen+1 {
				t.Errorf("generation %d -> %d, want one tick", gen, got)
			}
			for id, rate := range last {
				if aq := tbl.Lookup(id); aq == nil || aq.ID() != id || aq.Rate() != rate {
					t.Errorf("Lookup(%d) = %v, want the batch's last config for it (%v)", id, aq, rate)
				}
			}
			deployed := map[packet.AQID]bool{}
			for _, id := range append(tc.before, tc.batch...) {
				deployed[id] = true
			}
			for _, id := range append(ids(0, 130), far-1, far, far+1) {
				if got := tbl.Lookup(id); (got != nil) != deployed[id] {
					t.Errorf("Lookup(%d) = %v, want deployed %v", id, got, deployed[id])
				}
			}
			if got, want := sc.ResolveRun(tc.batch[0], 1), tbl.Lookup(tc.batch[0]); got != want || got == old {
				t.Errorf("cursor bound before the batch resolved %p (before it %p), table holds %p", got, old, want)
			}
			for _, id := range tc.before {
				last[id] = 0
			}
			if got := tbl.Len(); got != len(last) {
				t.Errorf("Len = %d, want the %d distinct IDs deployed", got, len(last))
			}
		})
	}
}

// TestTableDeployBatchAllocs bounds what a bulk deploy into a fresh table
// allocates: the slab, and the index's mirror sized for the batch at once,
// with no map beside it. Grown entry by entry and walked twice, 2000 AQs
// took 31.
func TestTableDeployBatchAllocs(t *testing.T) {
	cfgs := make([]Config, 2000)
	for i := range cfgs {
		cfgs[i] = Config{ID: packet.AQID(i + 1), Rate: units.Gbps}
	}
	allocs := testing.AllocsPerRun(20, func() { NewTable().DeployBatch(cfgs) })
	t.Logf("%.0f allocations", allocs)
	if allocs > 16 {
		t.Errorf("DeployBatch of %d AQs into a fresh table allocated %.0f times, want <= 16", len(cfgs), allocs)
	}
}

func TestTableIDsSorted(t *testing.T) {
	tbl := NewTable()
	for _, id := range []packet.AQID{5, 1, 9, 3} {
		tbl.Deploy(Config{ID: id, Rate: units.Gbps})
	}
	ids := tbl.IDs()
	want := []packet.AQID{1, 3, 5, 9}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", ids, want)
		}
	}
}

func TestTableMemoryModel(t *testing.T) {
	tbl := NewTable()
	for i := 1; i <= 100; i++ {
		tbl.Deploy(Config{ID: packet.AQID(i), Rate: units.Gbps})
	}
	if tbl.MemoryBytes() != 100*BytesPerAQ {
		t.Fatalf("MemoryBytes = %d, want %d", tbl.MemoryBytes(), 100*BytesPerAQ)
	}
}

func TestStrawmanAllowsSurplusAGapDoesNot(t *testing.T) {
	// Reproduce the essence of Figure 3: a source that underuses its
	// allocation builds negative D(t) (surplus) with the strawman, but the
	// A-Gap clamps at ~0, so a later burst is penalized immediately by the
	// A-Gap while the strawman absorbs it.
	rate := units.Gbps // 0.125 B/ns
	s := NewStrawman(rate)
	aq := New(Config{ID: 1, Rate: rate, Limit: 1 << 30})
	// Send at half the allocated rate for a while: one 1000 B packet every
	// 16000 ns (allocation drains 2000 B per interval).
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		now += 16000
		s.Arrive(now, 1000)
		aq.Update(now, 1000)
	}
	if s.D() >= 0 {
		t.Fatalf("strawman D = %v, want negative (surplus)", s.D())
	}
	if aq.Gap() > 1000 {
		t.Fatalf("A-Gap = %v, want clamped near zero", aq.Gap())
	}
	// Burst: 50 packets back to back.
	for i := 0; i < 50; i++ {
		now++
		s.Arrive(now, 1000)
		aq.Update(now, 1000)
	}
	if s.D() >= aq.Gap() {
		t.Fatalf("strawman D (%v) should lag A-Gap (%v) after the burst due to surplus",
			s.D(), aq.Gap())
	}
}

func TestStrawmanIdleClampsAtZero(t *testing.T) {
	s := NewStrawman(units.Gbps)
	s.Arrive(0, 10000)
	if s.Idle(1<<30) != 0 {
		t.Fatal("idle decay did not clamp at zero")
	}
}
