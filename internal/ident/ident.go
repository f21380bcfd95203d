// Package ident holds the density heuristic the data plane uses to choose
// between direct-indexed slice tables and map fallbacks.
//
// The paper's hardware design (§4.2) matches AQ tags against
// direct-indexed register arrays; the simulator gets the same effect only
// when IDs are small and contiguous. Topology builders and experiments
// number hosts from zero and AQs from one upward by convention, and Dense
// decides, per table, when the IDs a table actually holds are contiguous
// enough to pay for a flat slice.
package ident

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
