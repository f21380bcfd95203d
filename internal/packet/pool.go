package packet

import "aqueue/internal/sim"

// Steady-state forwarding must not allocate: every data segment and ACK
// comes out of its engine's free list and goes back the moment its owner
// is done with it. Ownership is linear — a packet belongs to exactly one
// component at a time (sender → queue → wire → receiver), and whichever
// component terminates that chain (a drop site or the delivering host)
// calls Release. See DESIGN.md "Packet pool and linear ownership" for the
// ownership rules.
//
// A packet never leaves the engine that made it: each engine has one free
// list, no other engine or goroutine touches it, and it goes to the GC
// with the engine. Because a recycled packet is fully zeroed before reuse,
// run results are byte-identical whether a packet's memory is fresh or
// reused; a use after release is caught by the aqdebug poison build
// (poison_debug.go), which CI runs.

// Pool is an engine's packet free list. The simulator is single-goroutine
// per engine, so the list and its counters need no locking.
type Pool struct {
	free []*Packet

	// gets and releases count Get and Release calls (a nil Release is not
	// one), so gets − releases is the number of packets the run holds.
	gets, releases uint64
}

// PoolStats is a snapshot of a pool's Get and Release counts. No run
// snapshot or fingerprint includes it.
type PoolStats struct {
	Gets     uint64
	Releases uint64
}

// Stats returns the pool's Get and Release counts.
func (pl *Pool) Stats() PoolStats { return PoolStats{Gets: pl.gets, Releases: pl.releases} }

// PoolFor returns the engine's packet free list, creating it on first use.
// It is stored in the engine's opaque pool slot, so components built on the
// same engine share one list.
func PoolFor(e *sim.Engine) *Pool {
	slot := e.PacketPoolSlot()
	if p, ok := (*slot).(*Pool); ok {
		return p
	}
	p := new(Pool)
	*slot = p
	return p
}

// Get returns a zeroed packet: a recycled one when the free list has one,
// fresh memory otherwise. Prefer NewData/NewAck, which also fill in the
// common header fields.
func (pl *Pool) Get() *Packet {
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		*p = Packet{}
	} else {
		p = new(Packet)
	}
	pl.gets++
	debugAcquire(p)
	return p
}

// Release returns a packet to the free list. Only the packet's current
// owner — the component the linear ownership chain ended at — may call it,
// exactly once, and must not touch the packet afterwards. Under
// `-tags aqdebug` the packet is poisoned on release and a double release
// panics.
func (pl *Pool) Release(p *Packet) {
	if p == nil {
		return
	}
	debugRelease(p)
	pl.releases++
	pl.free = append(pl.free, p)
}

// NewData allocates a data segment from this pool; see the package-level
// NewData for field semantics.
func (pl *Pool) NewData(src, dst HostID, flow FlowID, seq int64, payload int) *Packet {
	p := pl.Get()
	fillData(p, src, dst, flow, seq, payload)
	return p
}

// NewAck allocates an ACK from this pool; see the package-level NewAck.
func (pl *Pool) NewAck(src, dst HostID, flow FlowID, cumAck int64) *Packet {
	p := pl.Get()
	fillAck(p, src, dst, flow, cumAck)
	return p
}
