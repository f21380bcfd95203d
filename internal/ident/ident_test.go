package ident

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestDenseHeuristic(t *testing.T) {
	cases := []struct {
		maxID, count int
		want         bool
	}{
		{0, 0, false},       // empty table: nothing to index
		{-1, 5, false},      // no IDs seen
		{4, 4, true},        // AQs 1..4
		{63, 1, true},       // within the fixed slack
		{64, 1, true},       // 4*1+64 = 68 >= 65
		{1000, 2, false},    // sparse: two AQs at high IDs
		{4095, 1024, true},  // exactly 4x
		{4159, 1024, true},  // 4x + slack boundary: maxID+1 == 4*count+64
		{4160, 1024, false}, // just past it
		{1 << 20, 1 << 18, true},
		{1 << 20, 100, false},
	}
	for _, c := range cases {
		if got := Dense(c.maxID, c.count); got != c.want {
			t.Errorf("Dense(%d, %d) = %v, want %v", c.maxID, c.count, got, c.want)
		}
	}
}

// TestReserveFillKeepsMirror fills a reserved index with dense IDs, as
// core.Table.DeployBatch does, and requires the mirror to be the record at
// the end — in the storage Reserve allocated, with no rebuild pending and
// no map beside it — so the first Get after a bulk fill walks nothing. The
// whole fill allocates once: the mirror.
func TestReserveFillKeepsMirror(t *testing.T) {
	const n = 1000
	vals := make([]int, n)
	fill := func(ix *Index[uint32, *int]) {
		ix.Reserve(n)
		for i := range vals {
			ix.Set(uint32(i+1), &vals[i])
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { fill(new(Index[uint32, *int])) }); allocs != 1 {
		t.Fatalf("a reserved dense fill of %d allocated %.0f times, want 1 (the mirror)", n, allocs)
	}
	var ix Index[uint32, *int]
	fill(&ix)
	if ix.mirror == nil || ix.stale || ix.m != nil {
		t.Fatalf("after the fill: mirror built %v, rebuild pending %v, map allocated %v; want built, none pending, no map",
			ix.mirror != nil, ix.stale, ix.m != nil)
	}
	if len(ix.mirror) != n+1 || cap(ix.mirror) != n+1 {
		t.Fatalf("mirror len %d cap %d, want both %d: the slots Reserve allocated", len(ix.mirror), cap(ix.mirror), n+1)
	}
	for i := range vals {
		if got := ix.Get(uint32(i + 1)); got != &vals[i] {
			t.Fatalf("Get(%d) = %p, want %p", i+1, got, &vals[i])
		}
	}
	if ix.Get(0) != nil || ix.Get(n+1) != nil || ix.Len() != n {
		t.Fatalf("absent IDs resolved, or Len %d != %d", ix.Len(), n)
	}

	// Reserve on a non-empty index keeps what it holds.
	ix.Reserve(5)
	if ix.Len() != n || ix.Get(1) != &vals[0] {
		t.Fatal("Reserve on a non-empty index changed it")
	}
}

// TestSetZeroDeletes: a zero value is absent in both layouts, so storing
// one deletes the ID — Len and Keys agree with Get whichever layout holds
// the entries.
func TestSetZeroDeletes(t *testing.T) {
	for _, far := range []bool{false, true} {
		var ix Index[uint32, int]
		ix.Set(1, 10)
		ix.Set(2, 20)
		if far {
			ix.Set(1<<20, 30) // sparse: the map is the record
		}
		ix.Get(1)
		if (ix.mirror != nil) == far {
			t.Fatalf("far %v: mirror live %v", far, ix.mirror != nil)
		}
		ix.Set(2, 0)
		ix.Set(7, 0) // absent already: no entry appears
		want := []uint32{1}
		if far {
			want = append(want, 1<<20)
		}
		if got := ix.Keys(); ix.Get(2) != 0 || ix.Len() != len(want) || !slices.Equal(got, want) {
			t.Fatalf("far %v: after Set(2, 0) and Set(7, 0): Get(2) %d, Len %d, Keys %v; want 0, %d, %v", far, ix.Get(2), ix.Len(), got, len(want), want)
		}
	}
}

// TestDeleteGivesSlotsBack: a Delete shrinks a mirror's storage, not only
// its length, once it holds over twice the slots Dense approves for the
// entries left — a table emptied or shrunk by deletes keeps no more than
// twice what a fresh one would.
func TestDeleteGivesSlotsBack(t *testing.T) {
	const n = 1000
	var ix Index[uint32, int]
	ix.Reserve(n)
	for id := uint32(1); id <= n; id++ {
		ix.Set(id, int(id))
	}
	for id := uint32(n); id > 10; id-- {
		ix.Delete(id)
	}
	if ix.mirror == nil || ix.Len() != 10 || len(ix.mirror) != 11 || !Dense(cap(ix.mirror)/2, 10) {
		t.Fatalf("after deleting IDs 11..%d: mirror live %v, Len %d, len %d cap %d", n, ix.mirror != nil, ix.Len(), len(ix.mirror), cap(ix.mirror))
	}
	for id := uint32(1); id <= 10; id++ {
		if got := ix.Get(id); got != int(id) {
			t.Fatalf("Get(%d) = %d after the shrink", id, got)
		}
		ix.Delete(id)
	}
	if ix.Len() != 0 || len(ix.mirror) != 0 || !Dense(cap(ix.mirror)/2, 1) {
		t.Fatalf("emptied: Len %d, mirror len %d cap %d", ix.Len(), len(ix.mirror), cap(ix.mirror))
	}

	// A reserved index that one entry passed through keeps none of the
	// slots Reserve allocated.
	ix = Index[uint32, int]{}
	ix.Reserve(n)
	ix.Set(1, 1)
	ix.Delete(1)
	if ix.Len() != 0 || !Dense(cap(ix.mirror)/2, 1) {
		t.Fatalf("reserved for %d, one entry set and deleted: Len %d, mirror cap %d", n, ix.Len(), cap(ix.mirror))
	}
}

// indexScriptID decodes one ID class from an op byte: near zero, at the
// Dense edge for the current entry count, far but below 2^31, at or past
// 2^31, and past 2^32.
func indexScriptID(op, arg byte, n int) uint64 {
	switch (op >> 2) & 7 {
	case 0, 1:
		return uint64(arg % 16)
	case 2, 3:
		// The next Set makes n+1 entries; 4(n+1)+64 is the last index a
		// mirror may reach, so this straddles it by a few IDs either way.
		return uint64(4*n + 63 + int(arg%8))
	case 4, 5:
		return 1<<20 + uint64(arg)
	case 6:
		return 1<<31 - 2 + uint64(arg%4)
	default:
		return 1<<40 + uint64(arg)
	}
}

// FuzzIndex runs scripted Reserve/Set/Delete/Get sequences on an Index and
// on a plain map: every Get must agree with the map, Len must match, Keys
// must be the map's keys in ascending order, after any Get on a non-empty
// index the mirror must exist exactly when Dense approves the highest ID,
// a mirror must hold exactly the map's entries and never end in an absent
// slot, a Delete must leave it at most twice the storage Dense approves
// for the entries left, and the index must hold one layout at a time: no map while
// the mirror is live.
func FuzzIndex(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		script := make([]byte, 128)
		rand.New(rand.NewSource(seed)).Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		var ix Index[uint64, int]
		ref := map[uint64]int{}
		next := 0
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			id := indexScriptID(op, arg, len(ref))
			switch op & 3 {
			case 0:
				ix.Reserve(int(arg))
			case 1:
				next++
				ix.Set(id, next)
				ref[id] = next
			case 2:
				_, had := ref[id]
				ix.Delete(id)
				delete(ref, id)
				if c := cap(ix.mirror); had && !Dense(c/2, max(len(ref), 1)) {
					t.Fatalf("op %d: Delete left %d entries %d slots of storage", i/2, len(ref), c)
				}
			case 3:
				if got := ix.Get(id); got != ref[id] {
					t.Fatalf("op %d: Get(%d) = %d, map holds %d", i/2, id, got, ref[id])
				}
				if len(ref) == 0 {
					break
				}
				hi := slices.Max(keysOf(ref))
				want := hi < 1<<31 && Dense(int(hi), len(ref))
				if got := ix.mirror != nil; got != want {
					t.Fatalf("op %d: after Get, mirror %v; Dense(%d, %d) = %v", i/2, got, hi, len(ref), want)
				}
			}
			if ix.Len() != len(ref) {
				t.Fatalf("op %d: Len %d, map holds %d", i/2, ix.Len(), len(ref))
			}
			if ix.mirror != nil && ix.m != nil {
				t.Fatalf("op %d: both layouts live, a %d-slot mirror and a %d-entry map", i/2, len(ix.mirror), len(ix.m))
			}
			if k := len(ix.mirror); k > 0 && ix.mirror[k-1] == 0 {
				t.Fatalf("op %d: the %d-slot mirror ends in an absent slot", i/2, k)
			}
		}

		want := keysOf(ref)
		slices.Sort(want)
		if got := ix.Keys(); !slices.Equal(got, want) {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
		for id, v := range ix.mirror {
			if v != ref[uint64(id)] {
				t.Fatalf("mirror[%d] = %d, map holds %d", id, v, ref[uint64(id)])
			}
		}
		for id, v := range ref {
			if ix.mirror != nil && id >= uint64(len(ix.mirror)) {
				t.Fatalf("ID %d lies past the mirror's %d slots", id, len(ix.mirror))
			}
			if got := ix.Get(id); got != v {
				t.Fatalf("Get(%d) = %d, map holds %d", id, got, v)
			}
		}
	})
}

func keysOf(m map[uint64]int) []uint64 {
	keys := make([]uint64, 0, len(m))
	for id := range m {
		keys = append(keys, id)
	}
	return keys
}

// BenchmarkIndexFlip: one full layout round trip per op on an index of
// dense IDs 1..n — a Set far past them makes the IDs sparse, its Delete
// makes them dense again, and the next Get rebuilds the direct-indexed
// layout. This is the cycle flow churn drives a host's handler index
// through; allocs/op and B/op are what one round trip costs.
func BenchmarkIndexFlip(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			vals := make([]int, n+1)
			var ix Index[uint32, *int]
			for i := 1; i <= n; i++ {
				ix.Set(uint32(i), &vals[i])
			}
			far := uint32(8*n + DenseSlack)
			ix.Get(1)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				ix.Set(far, &vals[0])
				ix.Delete(far)
				if ix.Get(1) != &vals[1] {
					b.Fatal("Get(1) lost its entry")
				}
			}
		})
	}
}
