package sim

import (
	"testing"
	"testing/quick"
)

func TestDetachedEventsFireAndRecycle(t *testing.T) {
	e := NewEngine()
	sum := 0
	add := func(v any) { sum += v.(int) }
	for i := 1; i <= 10; i++ {
		e.AtDetached(Time(i), add, i)
	}
	e.Run()
	if sum != 55 {
		t.Fatalf("sum = %d, want 55", sum)
	}
	// Detached events live inline in heap nodes: once the heap slice has
	// grown, scheduling and firing them must not allocate at all. (The arg
	// is pre-boxed: converting an int to `any` at the call site would
	// itself allocate and hide an engine regression.)
	boxed := any(100)
	allocs := testing.AllocsPerRun(100, func() {
		e.AfterDetached(1, add, boxed)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("detached schedule+fire allocated %.1f times per run, want 0", allocs)
	}
}

func TestDetachedInterleavesWithHandles(t *testing.T) {
	// At is the closure convenience over AtDetached: both file one
	// handle-less slot, so at the same instant they fire in scheduling
	// order, like any other events.
	e := NewEngine()
	var order []int
	e.AtDetached(5, func(v any) { order = append(order, v.(int)) }, 0)
	e.At(5, func() { order = append(order, 1) })
	e.AtDetached(5, func(v any) { order = append(order, v.(int)) }, 2)
	e.Run()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestHeapOrderingProperty re-checks (time, scheduling order) dispatch on
// the 4-ary heap under a mix of up-front scheduling and scheduling from
// inside a firing handler — the first such call refills the root hole, the
// rest append and sift up.
func TestHeapOrderingProperty(t *testing.T) {
	f := func(delays []uint16, chain []uint8) bool {
		e := NewEngine()
		type stamp struct {
			at  Time
			ord int
		}
		var fired []stamp
		ord := 0
		var schedule func(d Time, follow int)
		schedule = func(d Time, follow int) {
			me := stamp{e.Now() + d, ord}
			ord++
			e.After(d, func() {
				if e.Now() != me.at {
					me.ord = -1 // fired at the wrong instant: poison the trace
				}
				fired = append(fired, me)
				for k := 0; k < follow; k++ {
					schedule(Time(k%3), 0)
				}
			})
		}
		for i, d := range delays {
			follow := 0
			if i < len(chain) {
				follow = int(chain[i] % 4)
			}
			schedule(Time(d), follow)
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if a.ord < 0 || b.ord < 0 || a.at > b.at || (a.at == b.at && a.ord > b.ord) {
				return false
			}
		}
		return len(fired) == ord && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
