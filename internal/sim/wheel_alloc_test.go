package sim

import "testing"

// TestWheelSlotArenaLazyPerLevel pins the slot-slice allocation strategy:
// a fresh engine allocates no slot storage at all, the first timer placed
// at a level carves that level's slots out of one arena, and untouched
// levels stay unallocated. This is what keeps engine construction cheap
// across benchmark sweeps that build thousands of short-lived engines.
func TestWheelSlotArenaLazyPerLevel(t *testing.T) {
	e := NewEngine()
	w := &e.wheel
	for l := range w.levels {
		if w.levels[l].ready {
			t.Fatalf("level %d slots initialized before any timer", l)
		}
	}
	tm := e.NewTimer(func() {})
	tm.Arm(3) // level 0 at cur=0
	if !w.levels[0].ready {
		t.Fatal("level 0 slots not carved by the first place")
	}
	for l := 1; l < wheelLevels; l++ {
		if w.levels[l].ready {
			t.Fatalf("level %d slots carved without being touched", l)
		}
	}
	for s := range w.levels[0].slots {
		if c := cap(w.levels[0].slots[s]); c != slotChunk {
			t.Fatalf("slot %d capacity = %d, want %d", s, c, slotChunk)
		}
	}
	// Emptying a slot resets it to the arena-backed [:0], never to nil, so
	// the capacity survives for the life of the engine.
	tm.Disarm()
	if c := cap(w.levels[0].slots[3]); c != slotChunk {
		t.Fatalf("slot capacity = %d after disarm, want %d", c, slotChunk)
	}
}

// TestWheelArmDisarmWithinChunkAllocationFree holds the arena fix to its
// point: steady-state arm/disarm churn within a slot's chunk touches the
// allocator zero times.
func TestWheelArmDisarmWithinChunkAllocationFree(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer(func() {})
	tm.Arm(5)
	tm.Disarm() // warm level 0's arena
	allocs := testing.AllocsPerRun(500, func() {
		tm.Arm(5)
		tm.Disarm()
	})
	if allocs != 0 {
		t.Fatalf("arm/disarm allocated %.1f times per run, want 0", allocs)
	}
}

// TestEngineConstructionDoesNotPreallocateSlots bounds what NewEngine
// allocates: the engine, its wheel header, and small fixed state — not the
// 7×64 slot slices the eager layout used to build.
func TestEngineConstructionDoesNotPreallocateSlots(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		_ = NewEngine()
	})
	if allocs > 8 {
		t.Fatalf("NewEngine allocated %.1f times, want a small constant (≤8)", allocs)
	}
}
