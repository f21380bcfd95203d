package transport

// segRing holds one byte of state per MSS-grid segment for the sequences
// [base, base+len(buf)*mss), in a power-of-two ring indexed by segment
// offset from base. Both halves of a flow keep one: the sender's SACK
// scoreboard and the receiver's held-out-of-order flags. Every data
// segment starts on the MSS grid and carries a payload fixed by its
// sequence (segPayload), so one byte per grid slot says everything a
// seq-keyed map would — with no hashing and no buckets.
//
// base only moves forward, by whole segments, and the slots it slides past
// are cleared, so a sequence below base reads as absent exactly like a
// deleted map entry. The ring grows to cover the highest sequence set and
// never shrinks; the receive window (rwndBytes) bounds it at
// rwndBytes/mss slots rounded up to a power of two — 2 048 bytes at the
// default MSS.
type segRing struct {
	buf  []uint8
	base int64
	head int
	mss  int64
}

// get returns the state for the segment starting at seq, or 0 ("absent")
// when seq lies outside the tracked window.
func (r *segRing) get(seq int64) uint8 {
	d := seq - r.base
	if d < 0 {
		return 0
	}
	off := d / r.mss
	if off >= int64(len(r.buf)) {
		return 0
	}
	return r.buf[(r.head+int(off))&(len(r.buf)-1)]
}

// set records the state for the segment starting at seq >= base, growing
// the ring to cover it.
func (r *segRing) set(seq int64, v uint8) {
	off := (seq - r.base) / r.mss
	for off >= int64(len(r.buf)) {
		r.grow()
	}
	r.buf[(r.head+int(off))&(len(r.buf)-1)] = v
}

func (r *segRing) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 64
	}
	buf := make([]uint8, n)
	for i := 0; i < len(r.buf); i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// advance slides base up to newBase, clearing the vacated slots. The base
// only moves by whole segments (rounding the last, possibly partial,
// segment up) so segment offsets stay grid-aligned.
func (r *segRing) advance(newBase int64) {
	if newBase <= r.base {
		return
	}
	n := (newBase - r.base + r.mss - 1) / r.mss
	if n >= int64(len(r.buf)) {
		clear(r.buf)
		r.head = 0
	} else {
		mask := len(r.buf) - 1
		for i := int64(0); i < n; i++ {
			r.buf[r.head] = 0
			r.head = (r.head + 1) & mask
		}
	}
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
