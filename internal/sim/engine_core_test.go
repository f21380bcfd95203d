package sim

import (
	"fmt"
	"slices"
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

// lessRef is the order as the engine used to state it, one branch per
// field. Product code states it once as a mask (ltMask); this is what the
// mask, the select and the tournament in Engine.down are held to.
func lessRef(a, b heapKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// leastChild runs Engine.down over a root that loses to every child and
// reports which of the four children it promoted, read off the payload that
// rode up with the key.
func leastChild(c [4]heapKey) (heapKey, int) {
	e := &Engine{keys: append([]heapKey{{at: maxTime + 1}}, c[:]...), vals: make([]heapVal, 5)}
	for i := range c {
		e.vals[1+i].arg = i
	}
	e.down(0)
	return e.keys[0], e.vals[0].arg.(int)
}

// TestOrdCompareMatchesReference holds ltMask, selKey and the child index
// Engine.down selects to the two-branch reference: over the corners of both
// fields — the sequence is the full 64 bits, so the borrow chain must be
// unsigned — and over random quadruples in every permutation.
func TestOrdCompareMatchesReference(t *testing.T) {
	var table []heapKey
	for _, at := range []Time{0, 1, maxTime} {
		for _, seq := range []uint64{0, 1, 1<<63 - 1, 1 << 63, ^uint64(0)} {
			table = append(table, heapKey{at, seq})
		}
	}
	for _, a := range table {
		for _, b := range table {
			want := uint64(0)
			if lessRef(a, b) {
				want = ^uint64(0)
			}
			if got := ltMask(a, b); got != want {
				t.Fatalf("ltMask(%v, %v) = %#x, want %#x", a, b, got, want)
			}
			if less(a, b) != lessRef(a, b) {
				t.Fatalf("less(%v, %v) = %v", a, b, less(a, b))
			}
			if selKey(a, b, 0) != a || selKey(a, b, ^uint64(0)) != b {
				t.Fatalf("selKey(%v, %v) picked the wrong side", a, b)
			}
		}
	}

	// The reference's choice: the first child no other child precedes.
	check := func(c [4]heapKey) error {
		want := 0
		for i := 1; i < 4; i++ {
			if lessRef(c[i], c[want]) {
				want = i
			}
		}
		if key, got := leastChild(c); got != want || key != c[want] {
			return fmt.Errorf("children %v: down promoted child %d (%v), want %d", c, got, key, want)
		}
		return nil
	}
	for _, a := range table { // ties included: equal keys keep the lower index
		for _, b := range table {
			for _, c := range [][4]heapKey{{a, a, b, b}, {a, b, a, b}, {b, a, a, b}, {b, b, b, a}, {a, a, a, a}} {
				if err := check(c); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	perms := permutations(4)
	f := func(at [4]int64, ord [4]uint64) bool {
		var c [4]heapKey
		for i := range c {
			c[i] = heapKey{Time(at[i]) & maxTime, ord[i]}
		}
		for _, p := range perms {
			if err := check([4]heapKey{c[p[0]], c[p[1]], c[p[2]], c[p[3]]}); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			out = append(out, slices.Insert(slices.Clone(p), i, n-1))
		}
	}
	return out
}

// TestSameInstantCrowdFiresInSchedulingOrder crowds one instant: ≥ 64
// events from AtDetached, At and Timer.Arm, a third of them scheduled
// before the instant (the first into a root hole, the rest sifting up) and
// the others from inside handlers firing at that very instant. They must
// all fire, in scheduling order.
func TestSameInstantCrowdFiresInSchedulingOrder(t *testing.T) {
	f := func(script []uint8) bool {
		for len(script) < 64 {
			script = append(script, uint8(len(script)*7))
		}
		const instant = 1000
		e := NewEngine()
		var fired []int
		next := 0
		var fire func(any)
		schedule := func() {
			b, me := script[next], next
			next++
			switch b % 3 {
			case 0:
				e.AtDetached(instant, fire, me)
			case 1:
				e.At(instant, func() { fire(me) })
			default:
				e.NewTimer(func() { fire(me) }).Arm(instant)
			}
		}
		fire = func(x any) {
			fired = append(fired, x.(int))
			for k := 0; k < 2 && next < len(script); k++ {
				schedule()
			}
		}
		e.At(instant-1, func() {
			for next < len(script)/3 {
				schedule()
			}
		})
		e.Run()
		if len(fired) != len(script) || e.Now() != instant || e.Pending() != 0 {
			return false
		}
		for i, me := range fired {
			if me != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSameInstantOrderAcross2to40: the scheduling sequence is the full
// 64-bit counter, so same-instant events scheduled across its 2^40-th
// draw still fire in scheduling order — two detached events and a timer,
// from both scheduling lanes.
func TestSameInstantOrderAcross2to40(t *testing.T) {
	e := NewEngine()
	e.seq = 1<<40 - 1
	var got []string
	rec := func(x any) { got = append(got, x.(string)) }
	e.AtDetached(5, rec, "first")
	e.AtDetached(5, rec, "second")
	e.NewTimer(func() { got = append(got, "timer") }).Arm(5)
	e.Run()
	if fmt.Sprint(got) != "[first second timer]" {
		t.Fatalf("fire order %v, want [first second timer]", got)
	}
}
