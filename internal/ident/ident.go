// Package ident holds the one ID index the data plane uses for every
// per-packet lookup keyed by a small integer ID: a direct-indexed slice
// while the IDs it holds are dense, a map otherwise — one layout at a time.
//
// The paper's hardware design (§4.2) matches AQ tags against
// direct-indexed register arrays; the simulator gets the same effect only
// when IDs are small and contiguous. Topology builders and experiments
// number hosts from zero and AQs from one upward by convention, and Dense
// decides, per index, when the IDs it actually holds are contiguous enough
// to pay for a flat slice.
package ident

import "slices"

// DenseSlack is the fixed slice-length floor Dense tolerates regardless of
// live-entry count, so small tables (a handful of AQs numbered 1..4, a
// rack of 64 hosts) always qualify.
const DenseSlack = 64

// Dense reports whether a direct-indexed slice over [0, maxID] is an
// acceptable layout for count live IDs. The rule: the slice may be at most
// 4x the live entries plus DenseSlack — beyond that the wasted memory and
// cache footprint of the empty slots outweigh the saved hash.
func Dense(maxID int, count int) bool {
	if count <= 0 || maxID < 0 {
		return false
	}
	return maxID < 4*count+DenseSlack
}

// mirrorLimit bounds the IDs a mirror may cover, so an ID always converts
// to a non-negative int and no key set can ask for a multi-gigabyte slice.
const mirrorLimit = 1 << 31

// Index maps IDs to values and holds them in one layout at a time. While
// mirror is non-nil it is the record: a slice direct-indexed by ID, absent
// IDs holding the zero value, so a lookup is a bounds check and a load; n
// counts its entries, and the map is nil. Otherwise the map is the record.
// A zero value is absent in both: Set(id, zero) deletes id. Which layout
// serves a Get is unobservable in its result.
//
// Layout changes are lazy. A Set on the map only marks it stale; the next
// Get builds the mirror from it, and drops it, if Dense approves the IDs it
// holds. The mirror takes Sets and Deletes in place while Dense approves
// the range it covers — it never ends in an absent slot, and a Delete
// leaves it at most twice the storage Dense approves for the entries left —
// and
// a Set past that range moves its entries into a map. Reserve starts an empty mirror
// for a bulk fill. The zero Index is empty and ready to use. An Index is
// not safe for concurrent use, Get included: it may build the mirror.
type Index[K ~uint32 | ~uint64, V comparable] struct {
	m      map[K]V
	mirror []V
	n      int // entries in the mirror, while it is the record
	// stale is set when the map is the record and a change since the last
	// build attempt may have made its IDs dense again: the next Get tries.
	stale bool
}

// fits reports whether a mirror over [0, id] is acceptable for n entries.
func fits[K ~uint32 | ~uint64](id K, n int) bool {
	return uint64(id) < mirrorLimit && Dense(int(id), n)
}

// Get returns the value stored under id, or the zero value.
func (ix *Index[K, V]) Get(id K) V {
	if uint64(id) < uint64(len(ix.mirror)) {
		return ix.mirror[id]
	}
	return ix.miss(id)
}

// miss serves a Get the mirror does not cover: past its end (an absent
// ID; the map is nil then), or from the map after trying to build a mirror.
func (ix *Index[K, V]) miss(id K) V {
	if ix.stale {
		ix.build()
		return ix.Get(id)
	}
	return ix.m[id]
}

// build makes the mirror the record when Dense approves the IDs the map
// holds.
func (ix *Index[K, V]) build() {
	ix.stale = false
	var hi K
	for id := range ix.m {
		hi = max(hi, id)
	}
	if !fits(hi, len(ix.m)) {
		return
	}
	ix.mirror = make([]V, int(hi)+1)
	for id, v := range ix.m {
		ix.mirror[id] = v
	}
	ix.n, ix.m = len(ix.m), nil
}

// toMap makes the map the record, from the mirror's entries.
func (ix *Index[K, V]) toMap() {
	var zero V
	ix.m = make(map[K]V, ix.n+1)
	for id, v := range ix.mirror {
		if v != zero {
			ix.m[K(id)] = v
		}
	}
	ix.mirror, ix.n = nil, 0
}

// Set stores v under id; a zero v deletes id.
func (ix *Index[K, V]) Set(id K, v V) {
	var zero V
	switch {
	case v == zero:
		ix.Delete(id)
	case ix.mirror == nil:
		if ix.m == nil {
			ix.m = make(map[K]V)
		}
		ix.m[id] = v
		ix.stale = true
	case uint64(id) < uint64(len(ix.mirror)):
		if ix.mirror[id] == zero {
			ix.n++
		}
		ix.mirror[id] = v
	case fits(id, ix.n+1):
		for K(len(ix.mirror)) < id {
			ix.mirror = append(ix.mirror, zero)
		}
		ix.mirror = append(ix.mirror, v)
		ix.n++
	default:
		// id alone makes the range sparse, and only a Delete can change
		// that: the map serves, with no rebuild to attempt until then.
		ix.toMap()
		ix.m[id] = v
	}
}

// Delete removes id, if present.
func (ix *Index[K, V]) Delete(id K) {
	if ix.mirror == nil {
		n := len(ix.m)
		delete(ix.m, id)
		if len(ix.m) != n {
			ix.stale = true
		}
		return
	}
	var zero V
	if uint64(id) >= uint64(len(ix.mirror)) || ix.mirror[id] == zero {
		return // absent: nothing changed
	}
	ix.mirror[id] = zero
	ix.n--
	hi := len(ix.mirror) - 1
	for hi >= 0 && ix.mirror[hi] == zero {
		hi--
	}
	live := ix.mirror[:hi+1]
	switch {
	case ix.n > 0 && !fits(K(hi), ix.n):
		// Too few entries for the span the mirror covers: no shorter one
		// holds them, so the map serves.
		ix.toMap()
	case !Dense(cap(live)/2, max(ix.n, 1)):
		// Over twice the slots Dense allows the entries left: give them
		// back. Twice, because append may grow a mirror that far, and a
		// Delete must not undo each growth of a churning index.
		ix.mirror = append(make([]V, 0, len(live)), live...)
	default:
		ix.mirror = live
	}
}

// Len returns the number of entries.
func (ix *Index[K, V]) Len() int {
	if ix.mirror != nil {
		return ix.n
	}
	return len(ix.m)
}

// Keys returns the IDs present, in ascending order.
func (ix *Index[K, V]) Keys() []K {
	keys := make([]K, 0, ix.Len())
	if ix.mirror != nil {
		var zero V
		for id, v := range ix.mirror {
			if v != zero {
				keys = append(keys, K(id))
			}
		}
		return keys
	}
	for id := range ix.m {
		keys = append(keys, id)
	}
	slices.Sort(keys)
	return keys
}

// Reserve readies an empty index for n entries: an empty mirror with room
// for IDs 0..n and no map, so a fill of dense IDs lands in the mirror as it
// goes and leaves nothing to rebuild. On a non-empty index it does nothing.
func (ix *Index[K, V]) Reserve(n int) {
	if ix.Len() > 0 {
		return
	}
	ix.m, ix.mirror, ix.n, ix.stale = nil, make([]V, 0, n+1), 0, false
}
