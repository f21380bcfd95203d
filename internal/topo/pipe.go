// Package topo models the network: unidirectional pipes (a link direction
// with its egress FIFO and transmitter), switches that run the AQ ingress
// and egress pipelines of §4.2, end hosts, and builders for the paper's two
// evaluation topologies (the NS3 dumbbell of Fig. 5a and the testbed star of
// Fig. 5b / Fig. 2).
package topo

import (
	"math/bits"

	"aqueue/internal/packet"
	"aqueue/internal/queue"
	"aqueue/internal/ring"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// Receiver consumes packets delivered by a pipe.
type Receiver interface {
	Receive(p *packet.Packet)
}

// Pipe is one direction of a link: a FIFO egress buffer drained by a
// transmitter at the link rate, followed by a fixed propagation delay.
type Pipe struct {
	eng   *sim.Engine
	pool  *packet.Pool
	rate  units.BitRate
	delay sim.Time
	q     queue.Interface
	dst   Receiver

	// busy is set while the event-driven transmitter serializes a packet,
	// which began at txStart.
	busy    bool
	txStart sim.Time

	// fq is the plain FIFO behind q, enabling the virtual-transmitter
	// fast path: a FIFO drains deterministically, so each packet's
	// serialization window is known at enqueue time and Send can plan the
	// delivery directly — one engine event per packet instead of a
	// txDone/deliver pair. On this path fq is a counting FIFO (Admit and
	// PopDrainedN): it decides admission from its byte count and stores
	// nothing, because flights already holds every packet it counts. nil
	// when a custom scheduler (DRR) is installed, which falls back to the
	// event-driven transmitter.
	fq *queue.FIFO
	// txFreeAt is when the transmitter finishes its current backlog; a
	// packet enqueued now starts serializing at max(now, txFreeAt).
	txFreeAt sim.Time

	// flights holds one record per packet whose delivery is planned but
	// not yet made, in delivery order — on the FIFO path that is also
	// arrival and start order — and is the one place the pipe holds the
	// packet. Its head is the one delivery armed in the engine: deliveries
	// within a pipe are strictly ordered (lastPlan), so the rest wait here
	// and chain as each delivery fires. A long fat pipe carries
	// delay/txTime packets in flight; keeping them out of the event heap
	// keeps every sift shallow.
	flights ring.Buffer[flight]
	// waiting counts the last entries of flights that fq still counts:
	// accepted on the FIFO path, not yet serializing. drainStarted retires
	// them lazily as their start times pass, so fq's occupancy — which
	// drives tail drop, ECN marking and Backlog — matches what the
	// event-driven transmitter would report; deliver retires one whose
	// start passed unobserved, so fq never counts a delivered packet.
	waiting int

	// jitter, when positive, adds a uniform random component in
	// [0, jitter) to each packet's propagation delay. Continuous streams
	// from equal-rate links otherwise phase-lock at a downstream
	// contention point, which a real network's clock and processing noise
	// prevents. Delivery order within the pipe is preserved.
	jitter   sim.Time
	rng      *sim.Rand
	lastPlan sim.Time // latest planned delivery time, for order preservation

	// txSize/txNanos memoize the serialization time of the last packet
	// size transmitted. A pipe direction carries almost exclusively one
	// size (MSS data one way, header-only ACKs the other), so this turns a
	// per-packet float division into a compare. SetRate invalidates it.
	txSize  int
	txNanos sim.Time

	// fluidRate is the bandwidth currently claimed by the fluid lane on
	// this pipe (internal/fluid): packet serialization runs at the
	// residual rate while it is nonzero. Zero — the universal case with
	// the fluid lane off — leaves the transmit path bit-for-bit as
	// before, so fingerprints are unperturbed. SetFluidRate invalidates
	// the memo like SetRate.
	fluidRate units.BitRate

	// DelayHook, when set, observes the physical queuing delay of every
	// packet at dequeue time (excludes serialization and propagation).
	DelayHook func(d sim.Time, p *packet.Packet)

	// txDoneFn and deliverFn are the long-lived callbacks the transmitter
	// schedules per packet (via the engine's detached events), so the hot
	// path allocates no closures.
	txDoneFn  func(any)
	deliverFn func(any)

	// TxBytes counts bytes put on the wire (after any tail drops).
	TxBytes uint64
	// TxPackets counts packets put on the wire.
	TxPackets uint64
}

// NewPipe builds a pipe draining into dst. queueLimit and ecnThreshold are
// in bytes and configure the physical FIFO (see queue.New).
func NewPipe(eng *sim.Engine, rate units.BitRate, delay sim.Time, queueLimit, ecnThreshold int, dst Receiver) *Pipe {
	// Derive the AQM stream from the engine so concurrent runs never share
	// (or race on) a process-global sequence and a run's randomness is a
	// pure function of its own construction order.
	q := queue.New(queueLimit, ecnThreshold)
	q.SetAQMSeed(0xA11CE + eng.NextIn(eng.SeqDomain("queue.aqm"))*0x5bd1e995)
	p := &Pipe{
		eng:   eng,
		pool:  packet.PoolFor(eng),
		rate:  rate,
		delay: delay,
		q:     q,
		fq:    q,
		dst:   dst,
	}
	p.txDoneFn = func(x any) { p.txDone(x.(*packet.Packet)) }
	p.deliverFn = func(any) { p.deliver() }
	return p
}

// PipeStats is a snapshot of the pipe's wire counters and egress backlog,
// following the repo-wide stats convention (value type, no locks held).
type PipeStats struct {
	TxPackets uint64 `json:"tx_packets"`
	TxBytes   uint64 `json:"tx_bytes"`
	Backlog   int    `json:"backlog_bytes"`
}

// Stats returns a snapshot of the wire counters and current backlog.
func (p *Pipe) Stats() PipeStats {
	return PipeStats{TxPackets: p.TxPackets, TxBytes: p.TxBytes, Backlog: p.Backlog()}
}

// SetScheduler replaces the egress queue (e.g. with a queue.DRR). Only
// valid before any packet has been sent. A non-FIFO scheduler disables the
// virtual-transmitter fast path: its dequeue order depends on arrivals, so
// departures must be computed event by event.
func (p *Pipe) SetScheduler(q queue.Interface) {
	p.q = q
	p.fq, _ = q.(*queue.FIFO)
}

// Backlog returns the egress queue occupancy in bytes, whatever the
// scheduler type.
func (p *Pipe) Backlog() int {
	if p.fq != nil {
		p.drainStarted(p.eng.Now())
	}
	return p.q.Bytes()
}

// SetJitter enables per-packet propagation jitter in [0, j) using a stream
// seeded with seed.
func (p *Pipe) SetJitter(j sim.Time, seed uint64) {
	p.jitter = j
	p.rng = sim.NewRand(seed)
}

// Queue exposes the physical FIFO for stats and work-conservation checks;
// it returns nil when a different scheduler is installed. The FIFO counts
// the pipe's queued packets and stores none: its Pop and Peek return nil.
func (p *Pipe) Queue() *queue.FIFO {
	f, _ := p.q.(*queue.FIFO)
	return f
}

// InFlight returns the number of packets the pipe holds in its flights
// records: accepted, not yet delivered. On the FIFO path that is every
// packet the pipe owns.
func (p *Pipe) InFlight() int { return p.flights.Len() }

// Rate returns the link rate.
func (p *Pipe) Rate() units.BitRate { return p.rate }

// SetRate changes the link rate; used by tests that reconfigure link speeds
// (the paper's testbed runs ports at both 100 and 25 Gbps).
func (p *Pipe) SetRate(r units.BitRate) {
	p.rate = r
	p.txSize = 0
}

// txTime returns the serialization time for a packet of the given size at
// the pipe's current packet-lane rate, through the txSize/txNanos memo.
// With no fluid claim this is exactly rate.TransmitNanos — the pre-fluid
// transmit path, preserved bit-for-bit.
func (p *Pipe) txTime(size int) sim.Time {
	if size != p.txSize {
		p.txSize = size
		if p.fluidRate == 0 {
			p.txNanos = sim.Time(p.rate.TransmitNanos(size))
		} else {
			p.txNanos = sim.Time(p.residualRate().TransmitNanos(size))
		}
	}
	return p.txNanos
}

// residualRate is the bandwidth left for the packet lane after the fluid
// claim, floored at 1/1000 of the link so foreground packets keep moving
// (and the simulation keeps terminating) even when fluid demand saturates
// the pipe.
func (p *Pipe) residualRate() units.BitRate {
	res := p.rate - p.fluidRate
	if floor := p.rate / 1000; res < floor {
		res = floor
	}
	return res
}

// SetFluidRate installs the fluid lane's current claim on this pipe's
// bandwidth. The claim shapes only future serializations: packets already
// in flight keep their planned times, exactly like SetRate.
func (p *Pipe) SetFluidRate(r units.BitRate) {
	if r < 0 {
		r = 0
	}
	p.fluidRate = r
	p.txSize = 0
}

// FluidRate returns the fluid lane's current bandwidth claim.
func (p *Pipe) FluidRate() units.BitRate { return p.fluidRate }

// Engine returns the engine this pipe schedules on; the fluid lane uses it
// to refuse a pipe built on another engine.
func (p *Pipe) Engine() *sim.Engine { return p.eng }

// Send enqueues the packet for transmission. The packet is tail-dropped —
// and released back to the pool — when the FIFO is full, exactly what a
// physical port does.
//
// On the FIFO fast path the transmitter is virtual: the queue drains in
// arrival order at a known rate, so the packet's serialization window
// [start, start+tx) is fixed the moment it is accepted, and the delivery
// is planned here instead of by a txDone event — one engine event per
// packet instead of two. The FIFO still admits every packet (tail-drop,
// ECN and AQM decisions are its, with identical occupancy) but only counts
// it; the packet itself is held once, in flights, and the count is
// drained lazily as start times pass.
func (p *Pipe) Send(pkt *packet.Packet) {
	if p.fq == nil {
		if !p.q.Push(p.eng.Now(), pkt) {
			p.pool.Release(pkt)
			return
		}
		p.kick()
		return
	}
	now := p.eng.Now()
	p.drainStarted(now)
	if !p.fq.Admit(now, pkt) {
		p.pool.Release(pkt)
		return
	}
	start, queued := p.txFreeAt, true
	if start <= now {
		// Transmitter idle: serialization starts immediately, so the
		// packet never counts as queued.
		start, queued = now, false
		p.fq.PopDrainedN(1, pkt.Size)
	}
	waited := start - now
	pkt.QueueDelay += waited
	if p.DelayHook != nil {
		p.DelayHook(waited, pkt)
	}
	p.txFreeAt = start + p.txTime(pkt.Size)
	p.TxBytes += uint64(pkt.Size)
	p.TxPackets++
	p.planDelivery(start, p.txFreeAt, pkt)
	if queued {
		p.waiting++
	}
}

// drainStarted retires queue entries whose serialization has begun, so the
// FIFO's occupancy reflects only packets still waiting — the same set the
// event-driven transmitter would be holding. The whole run of due entries
// is retired in one FIFO transaction (PopDrainedN), so a burst's worth of
// departures costs one accounting update instead of one per packet.
func (p *Pipe) drainStarted(now sim.Time) {
	first, n, bytes := p.flights.Len()-p.waiting, 0, 0
	for ; n < p.waiting; n++ {
		f := p.flights.At(first + n)
		if f.start > now {
			break
		}
		bytes += f.pkt.Size
	}
	if n > 0 {
		p.waiting -= n
		p.fq.PopDrainedN(n, bytes)
	}
}

// kick starts the transmitter if it is idle and the queue is non-empty.
func (p *Pipe) kick() {
	if p.busy {
		return
	}
	pkt := p.q.Pop()
	if pkt == nil {
		return
	}
	waited := p.eng.Now() - pkt.EnqueuedAt
	pkt.QueueDelay += waited
	if p.DelayHook != nil {
		p.DelayHook(waited, pkt)
	}
	p.busy = true
	p.txStart = p.eng.Now()
	p.TxBytes += uint64(pkt.Size)
	p.TxPackets++
	p.eng.AfterDetached(p.txTime(pkt.Size), p.txDoneFn, pkt)
}

// txDone fires when the packet's last bit leaves the port (event-driven
// path only): plan delivery, then start on the next queued packet.
func (p *Pipe) txDone(pkt *packet.Packet) {
	p.busy = false
	p.planDelivery(p.txStart, p.eng.Now(), pkt)
	p.kick()
}

// planDelivery schedules pkt, whose serialization ran from start to end,
// to arrive at end plus propagation and jitter. Only the head of flights
// holds an engine event; later deliveries are armed as each one fires.
func (p *Pipe) planDelivery(start, end sim.Time, pkt *packet.Packet) {
	d := p.delay
	if p.jitter > 0 {
		// Multiply-shift range reduction (one draw, no divide): the high
		// 64 bits of x*jitter are uniform over [0, jitter) to the same
		// negligible bias as the modulo it replaces.
		hi, _ := bits.Mul64(p.rng.Uint64(), uint64(p.jitter))
		d += sim.Time(hi)
	}
	at := end + d
	if at <= p.lastPlan {
		at = p.lastPlan + 1 // never reorder within a pipe
	}
	p.lastPlan = at
	p.flights.Push(flight{start: start, at: at, pkt: pkt})
	if p.flights.Len() == 1 {
		p.eng.AtDetached(at, p.deliverFn, nil)
	}
}

// deliver hands the head packet to the destination and continues the
// delivery chain: the next planned delivery is armed before Receive runs,
// so it takes the engine's root hole and the chain's event schedule is
// independent of whatever the receiver does. A head fq still counts —
// its start passed with no Send or Backlog to drain it — is retired from
// fq first, while the pipe still owns the packet whose size it reads.
func (p *Pipe) deliver() {
	f, _ := p.flights.Pop()
	if p.waiting > p.flights.Len() {
		p.waiting--
		p.fq.PopDrainedN(1, f.pkt.Size)
	}
	if next, ok := p.flights.Peek(); ok {
		p.eng.AtDetached(next.at, p.deliverFn, nil)
	}
	p.dst.Receive(f.pkt)
}

// flight is one packet between acceptance and delivery: when its
// serialization starts, when it arrives at the destination, and the packet,
// which the pipe owns until deliver hands it on — so the FIFO's accounting
// reads its size from the packet itself.
type flight struct {
	start, at sim.Time
	pkt       *packet.Packet
}
