// Package ident holds the one ID index the data plane uses for every
// per-packet lookup keyed by a small integer ID: a map that is the record,
// mirrored into a direct-indexed slice while the IDs it holds are dense.
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
	return maxID+1 <= 4*count+DenseSlack
}

// mirrorLimit bounds the IDs a mirror may cover, so an ID always converts
// to a non-negative int and no key set can ask for a multi-gigabyte slice.
const mirrorLimit = 1 << 31

// Index maps IDs to values. The map is the record; mirror, while non-nil,
// holds the same entries direct-indexed by ID (absent IDs hold the zero
// value), so a lookup is a bounds check and a load. Which layout serves a
// Get is unobservable in its result.
//
// The mirror is built from the map by the first Get after the index lost
// it, and kept up to date in place by Set and Delete while Dense approves
// the range it covers; a change that leaves that range drops it. Reserve
// starts one for a bulk fill. The zero Index is empty and ready to use.
// An Index is not safe for concurrent use, Get included: it may build the
// mirror.
type Index[K ~uint32 | ~uint64, V comparable] struct {
	m      map[K]V
	mirror []V
	// stale is set when the index has no mirror and a change since the last
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
// ID), or from the map when there is no mirror, after trying to build one.
func (ix *Index[K, V]) miss(id K) V {
	if ix.stale {
		ix.build()
		return ix.Get(id)
	}
	if ix.mirror != nil {
		var zero V
		return zero
	}
	return ix.m[id]
}

// build makes the mirror from the map when Dense approves the IDs it holds.
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
}

// Set stores v under id.
func (ix *Index[K, V]) Set(id K, v V) {
	if ix.m == nil {
		ix.m = make(map[K]V)
	}
	ix.m[id] = v
	switch {
	case ix.mirror == nil:
		ix.stale = true
	case uint64(id) < uint64(len(ix.mirror)):
		ix.mirror[id] = v
	case fits(id, len(ix.m)):
		var zero V
		for K(len(ix.mirror)) < id {
			ix.mirror = append(ix.mirror, zero)
		}
		ix.mirror = append(ix.mirror, v)
	default:
		// id alone makes the range sparse, and only a Delete can change
		// that: the map serves, with no rebuild to attempt until then.
		ix.mirror = nil
	}
}

// Delete removes id, if present.
func (ix *Index[K, V]) Delete(id K) {
	n := len(ix.m)
	delete(ix.m, id)
	if len(ix.m) == n {
		return // absent: nothing changed
	}
	switch {
	case ix.mirror == nil:
		ix.stale = true
	case fits(K(len(ix.mirror)-1), len(ix.m)):
		var zero V
		ix.mirror[id] = zero
	default:
		// Too few entries for the span the mirror covers; the highest
		// remaining ID may allow a shorter one, so the next Get rebuilds.
		ix.mirror = nil
		ix.stale = true
	}
}

// Len returns the number of entries.
func (ix *Index[K, V]) Len() int { return len(ix.m) }

// Keys returns the IDs present, in ascending order.
func (ix *Index[K, V]) Keys() []K {
	keys := make([]K, 0, len(ix.m))
	for id := range ix.m {
		keys = append(keys, id)
	}
	slices.Sort(keys)
	return keys
}

// Reserve readies an empty index for n entries: the map is sized for them
// and an empty mirror is started with room for IDs 0..n, so a fill of
// dense IDs lands in the mirror as it goes and leaves nothing to rebuild.
// On a non-empty index it does nothing.
func (ix *Index[K, V]) Reserve(n int) {
	if len(ix.m) > 0 {
		return
	}
	ix.m = make(map[K]V, n)
	ix.mirror = make([]V, 0, n+1)
	ix.stale = false
}
