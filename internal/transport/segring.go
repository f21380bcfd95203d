package transport

import "aqueue/internal/ring"

// segRing holds one byte of state per MSS-grid segment for the sequences
// [base, base+slots.Len()*mss), on a ring.Buffer indexed by segment offset
// from base. Both halves of a flow keep one: the sender's SACK scoreboard
// and the receiver's held-out-of-order flags. Every data segment starts on
// the MSS grid and carries a payload fixed by its sequence (segPayload), so
// one byte per grid slot says everything a seq-keyed map would — with no
// hashing and no buckets.
//
// base only moves forward, by whole segments, and the slots it slides past
// are popped, so a sequence below base — or at or past the last slot —
// reads as absent exactly like a deleted map entry. The buffer extends to
// the highest sequence set and never shrinks its storage; the receive
// window (rwndBytes) bounds it at rwndBytes/mss slots rounded up to a power
// of two — 2 048 bytes at the default MSS.
type segRing struct {
	slots ring.Buffer[uint8]
	base  int64
	mss   int64
}

// get returns the state for the segment starting at seq, or 0 ("absent")
// when seq lies outside the tracked window.
func (r *segRing) get(seq int64) uint8 {
	d := seq - r.base
	if d < 0 || d/r.mss >= int64(r.slots.Len()) {
		return 0
	}
	return r.slots.At(int(d / r.mss))
}

// set records the state for the segment starting at seq >= base, extending
// the window with absent slots to cover it.
func (r *segRing) set(seq int64, v uint8) {
	off := int((seq - r.base) / r.mss)
	for off >= r.slots.Len() {
		r.slots.Push(0)
	}
	r.slots.Set(off, v)
}

// advance slides base up to newBase, dropping the vacated slots. The base
// only moves by whole segments (rounding the last, possibly partial,
// segment up) so segment offsets stay grid-aligned.
func (r *segRing) advance(newBase int64) {
	if newBase <= r.base {
		return
	}
	n := (newBase - r.base + r.mss - 1) / r.mss
	r.slots.PopN(int(min(n, int64(r.slots.Len()))))
	r.base += n * r.mss
}

// segPayload returns the payload length of the segment starting at seq in
// a flow of size bytes (0 means long-lived) cut into mss-byte segments.
func segPayload(seq, size, mss int64) int {
	if size != 0 && size-seq < mss {
		return int(size - seq)
	}
	return int(mss)
}
