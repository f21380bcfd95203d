package packet

import (
	"sync"

	"aqueue/internal/sim"
)

// Steady-state forwarding must not allocate: every data segment and ACK
// comes out of a process-wide sync.Pool and goes back the moment its owner
// is done with it. Ownership is linear — a packet belongs to exactly one
// component at a time (sender → queue → wire → receiver), and whichever
// component terminates that chain (a drop site or the delivering host)
// calls Release. See DESIGN.md "Hot-path architecture" for the ownership
// rules.
//
// A process-wide pool (rather than an engine-scoped free list) keeps the
// parallel experiment harness simple: engines on different goroutines
// share the pool safely, and because a recycled packet is fully zeroed
// before reuse, run results stay byte-identical whether a packet's memory
// is fresh or reused; a use after release is caught by the aqdebug poison
// build (poison_debug.go), which CI runs.
var pool = sync.Pool{New: func() any { return new(Packet) }}

// Get returns a zeroed packet from the pool. Prefer NewData/NewAck, which
// also fill in the common header fields. Engine-bound components should
// use their engine's Pool, which never contends with other engines.
func Get() *Packet {
	p := pool.Get().(*Packet)
	*p = Packet{}
	debugAcquire(p)
	return p
}

// Release returns a packet to the pool. Only the packet's current owner —
// the component the linear ownership chain ended at — may call it, exactly
// once, and must not touch the packet afterwards. Under `-tags aqdebug`
// the packet is poisoned on release and a double release panics.
func Release(p *Packet) {
	if p == nil {
		return
	}
	debugRelease(p)
	pool.Put(p)
}

// maxEngineFree caps an engine-local free list; the overflow spills to the
// shared sync.Pool. A single-bottleneck run keeps a few hundred packets in
// flight, so the cap is generous without pinning unbounded memory per
// engine.
const maxEngineFree = 4096

// Pool is an engine-local packet free list layered over the shared
// sync.Pool. The simulator is single-goroutine per engine, so the list
// needs no locking, and parallel harness workers recycling through their
// own engine's Pool never contend on — or bounce cache lines through — the
// process-wide pool; the sync.Pool is only the spill/refill tier. A Pool
// honours the aqdebug poisoning exactly like the package Get/Release, and
// packets are fully zeroed on reuse either way, so which tier served an
// allocation is unobservable in results.
type Pool struct {
	free []*Packet
}

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

// Get returns a zeroed packet, preferring the engine-local free list.
func (pl *Pool) Get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		*p = Packet{}
		debugAcquire(p)
		return p
	}
	return Get()
}

// Release returns a packet to the engine-local free list (spilling to the
// shared pool past the cap). Same ownership contract as the package-level
// Release.
func (pl *Pool) Release(p *Packet) {
	if p == nil {
		return
	}
	debugRelease(p)
	if len(pl.free) < maxEngineFree {
		pl.free = append(pl.free, p)
		return
	}
	pool.Put(p)
}

// Drain spills the whole free list to the shared pool. The engine calls it
// (via interface assertion — sim cannot import packet) when RunUntil
// returns, so packets recycled during a run outlive their engine and the
// next run starts from a warm shared pool instead of the allocator.
func (pl *Pool) Drain() {
	for i, p := range pl.free {
		pool.Put(p)
		pl.free[i] = nil
	}
	pl.free = pl.free[:0]
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
