package control

import (
	"math"
	"testing"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// feed drives synthetic arrivals into an AQ at a given offered rate.
func feed(eng *sim.Engine, aq *core.AQ, rate units.BitRate, until sim.Time) {
	const size = 1000
	interval := sim.Time(rate.TransmitNanos(size))
	var tick func()
	tick = func() {
		if eng.Now() >= until {
			return
		}
		p := packet.NewData(0, 1, 1, 0, size-packet.HeaderBytes)
		aq.Process(eng.Now(), p)
		eng.After(interval, tick)
	}
	eng.After(0, tick)
}

func TestReallocatorShiftsIdleShare(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := NewController(10 * units.Gbps)
	tbl := core.NewTable()
	gA, _ := ctrl.Grant(Request{Tenant: "a", Mode: Weighted, Weight: 1, Limit: 1 << 30}, tbl)
	gB, _ := ctrl.Grant(Request{Tenant: "b", Mode: Weighted, Weight: 1, Limit: 1 << 30}, tbl)
	aqA, aqB := tbl.Lookup(gA.ID), tbl.Lookup(gB.ID)

	re := NewReallocator(eng, ctrl, 5*sim.Millisecond)
	re.Manage(gA.ID, tbl, 1)
	re.Manage(gB.ID, tbl, 1)
	re.Start()

	// Entity A offers far more than its 5G share (it will be pinned at its
	// allocation); entity B offers only 1G.
	feed(eng, aqA, 9*units.Gbps, 100*sim.Millisecond)
	feed(eng, aqB, 1*units.Gbps, 100*sim.Millisecond)
	eng.RunUntil(100 * sim.Millisecond)

	if re.Rounds < 10 {
		t.Fatalf("only %d rounds ran", re.Rounds)
	}
	// B keeps ~its demand (with slack), A absorbs the rest.
	if got := float64(aqB.Rate()); got > 2.5e9 {
		t.Fatalf("idle-ish entity kept %v, want ~1.2G", aqB.Rate())
	}
	if got := float64(aqA.Rate()); got < 7e9 {
		t.Fatalf("backlogged entity got %v, want most of the link", aqA.Rate())
	}
	total := float64(aqA.Rate()) + float64(aqB.Rate())
	if total > 10.2e9 {
		t.Fatalf("allocations sum to %v, exceeding capacity", total)
	}
}

func TestReallocatorRestoresFairShareOnDemand(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := NewController(10 * units.Gbps)
	tbl := core.NewTable()
	gA, _ := ctrl.Grant(Request{Tenant: "a", Mode: Weighted, Weight: 1, Limit: 1 << 30}, tbl)
	gB, _ := ctrl.Grant(Request{Tenant: "b", Mode: Weighted, Weight: 1, Limit: 1 << 30}, tbl)
	aqA, aqB := tbl.Lookup(gA.ID), tbl.Lookup(gB.ID)

	re := NewReallocator(eng, ctrl, 5*sim.Millisecond)
	re.Manage(gA.ID, tbl, 1)
	re.Manage(gB.ID, tbl, 1)
	re.Start()

	// Phase 1: only A active. Phase 2: B wakes up and saturates too.
	feed(eng, aqA, 9*units.Gbps, 200*sim.Millisecond)
	eng.At(100*sim.Millisecond, func() {
		feed(eng, aqB, 9*units.Gbps, 200*sim.Millisecond)
	})
	eng.RunUntil(95 * sim.Millisecond)
	if got := float64(aqA.Rate()); got < 8e9 {
		t.Fatalf("phase 1: A at %v, want ~all", aqA.Rate())
	}
	eng.RunUntil(200 * sim.Millisecond)
	// Both pinned: back to ~weighted halves.
	if math.Abs(float64(aqA.Rate())-5e9) > 1.5e9 {
		t.Fatalf("phase 2: A at %v, want ~5G", aqA.Rate())
	}
	if math.Abs(float64(aqB.Rate())-5e9) > 1.5e9 {
		t.Fatalf("phase 2: B at %v, want ~5G", aqB.Rate())
	}
	re.Stop()
}

func TestWeightedWaterfill(t *testing.T) {
	// Equal weights, one small demand: [1, 100, 100] over 10 -> [1, 4.5, 4.5].
	got := Waterfill(10, []float64{1, 100, 100}, []float64{1. / 3, 1. / 3, 1. / 3})
	if math.Abs(got[0]-1) > 1e-9 || math.Abs(got[1]-4.5) > 1e-9 || math.Abs(got[2]-4.5) > 1e-9 {
		t.Fatalf("waterfill = %v", got)
	}
	// Weighted 1:3 with ample demands splits 2.5:7.5.
	got = Waterfill(10, []float64{100, 100}, []float64{0.25, 0.75})
	if math.Abs(got[0]-2.5) > 1e-9 || math.Abs(got[1]-7.5) > 1e-9 {
		t.Fatalf("weighted waterfill = %v", got)
	}
}
