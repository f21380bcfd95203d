package ident

import (
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
// core.Table.DeployBatch does, and requires the mirror to be built at the
// end — in the storage Reserve allocated, with no rebuild pending — so the
// first Get after a bulk fill walks nothing.
func TestReserveFillKeepsMirror(t *testing.T) {
	const n = 1000
	var ix Index[uint32, *int]
	ix.Reserve(n)
	room := cap(ix.mirror)
	vals := make([]int, n)
	for i := range vals {
		ix.Set(uint32(i+1), &vals[i])
	}
	if ix.mirror == nil || ix.stale {
		t.Fatalf("after the fill: mirror built %v, rebuild pending %v; want built, none pending", ix.mirror != nil, ix.stale)
	}
	if len(ix.mirror) != n+1 || cap(ix.mirror) != room {
		t.Fatalf("mirror len %d cap %d, want len %d in the reserved %d slots", len(ix.mirror), cap(ix.mirror), n+1, room)
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
// and a mirror must hold exactly the map's entries.
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
				ix.Delete(id)
				delete(ref, id)
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
