package sim

import (
	"fmt"
	"time"
)

// Cluster runs a partitioned simulation: a topology is split into N
// domains, each owning a private Engine (clock, event heap, packet free
// list, ID/seed sequences), synchronized by one conservative window.
//
// The protocol is null-message-free windowed PDES with a single bound per
// round. Every boundary channel (an Outbox) declares its minimum
// propagation delay at creation and the cluster keeps the least of them, W.
// Between rounds every domain clock equals the cluster clock; the
// coordinator flushes the mailboxes, reads E — the earliest event pending
// in any domain — and runs every domain to
//
//	b = max(clock + W, E + W − 1), capped at the deadline
//
// Nothing fires before E, so nothing is posted before E and no delivery
// lands before E + W: running through E + W − 1 is safe however events
// cascade through the channels, and it is what lets an idle fabric stride
// to its next event in one round. clock + W is the classic inclusive
// window; the two differ only when an event is due at the clock itself.
// All domains share the bound on purpose: a scheduler that gives domains
// different bounds lets one get x ahead of its neighbour, after which one
// advances W − x and the other W + x every round and they alternate instead
// of overlapping. A fabric whose channel delays differ gives up the strides
// a per-pair bound could have taken, never correctness.
//
// Determinism does not depend on the round schedule. Cross-domain
// deliveries are pushed onto the destination heap at flush time — later
// than a single-domain run would have pushed them — so same-instant
// ordering cannot be left to scheduling order. Cluster-built pipes
// therefore deliver on per-pipe lanes (Engine.AtOrdered): at equal times
// the construction-assigned lane decides, local anonymous events (lane 0)
// always precede deliveries, and within one pipe delivery times are
// strictly increasing, so no tie ever falls through to the push order.
// With identities and seeds drawn from the cluster's own sequences during
// construction, a scenario's results are a pure function of the topology
// and workload — byte-identical for any N.
//
// The domains of a round run one after another on the calling goroutine:
// the cluster partitions a simulation, it does not spread one over cores.
// A runtime write that crosses domains outside the mailboxes — a sender
// built in one domain registering its receiver on a host in another, a
// stats.Meter fed by hosts in several — is therefore plain memory, and it
// cannot be observed early: a cross-domain flow's first packet reaches the
// receiving host only after the registering round's mailboxes have
// flushed. A worker goroutine per domain did not pay for its hand-off at
// the sizes measured (DESIGN.md §3b).
type Cluster struct {
	engines []*Engine
	seqs    seqTable
	index   map[*Engine]int

	lanes  uint32
	window Time // W: the least boundary channel delay; 0 while there is no channel
	now    Time

	outboxes []*Outbox

	// Per-round scratch, sized N at construction.
	next []Time // earliest local pending event per domain (maxTime = none)
	work []int  // domains with events due inside the round's bound

	// Windows counts synchronization rounds executed, for tests and
	// SyncStats.
	Windows uint64

	flushes     uint64
	flushedMsgs uint64
	advanceNS   int64
	barrierNS   int64
	loads       []DomainLoad
	epoch       time.Time // origin of hostNS
}

// NewCluster returns a cluster of n fresh engines (n >= 1).
func NewCluster(n int) *Cluster {
	if n < 1 {
		panic("sim: cluster needs at least one domain")
	}
	c := &Cluster{
		engines: make([]*Engine, n),
		index:   make(map[*Engine]int, n),
		next:    make([]Time, n),
		work:    make([]int, 0, n),
		loads:   make([]DomainLoad, n),
		epoch:   time.Now(),
	}
	for i := range c.engines {
		c.engines[i] = NewEngine()
		c.index[c.engines[i]] = i
		c.loads[i].Domain = i
	}
	return c
}

// N returns the number of domains.
func (c *Cluster) N() int { return len(c.engines) }

// Engine returns domain i's engine.
func (c *Cluster) Engine(i int) *Engine { return c.engines[i] }

// Engines returns all domain engines, in domain order.
func (c *Cluster) Engines() []*Engine { return c.engines }

// Now returns the cluster clock: the time every domain has advanced to.
func (c *Cluster) Now() Time { return c.now }

// SeqDomain registers the named cluster-scoped sequence and returns its
// handle; see Engine.SeqDomain. Builders derive component identities and
// RNG seeds from cluster sequences (not engine ones) so that a component's
// identity depends only on construction order, never on which domain it
// was placed in.
func (c *Cluster) SeqDomain(name string) SeqDomain { return c.seqs.domain(name) }

// NextIn draws from a cluster sequence registered with SeqDomain.
func (c *Cluster) NextIn(d SeqDomain) uint64 { return c.seqs.next(d) }

// NextLane hands out the next ordering lane (1, 2, ...); lane 0 is the
// anonymous lane of ordinary events. Builders assign one per pipe.
func (c *Cluster) NextLane() uint32 {
	if c.lanes >= MaxLane {
		panic("sim: out of ordering lanes")
	}
	c.lanes++
	return c.lanes
}

// Outbox creates the mailbox for one boundary channel from src's domain
// into dst's domain, delivering on the given ordering lane, and registers
// it for flushing. delay is the channel's minimum latency promise — every
// Post must carry a delivery time at least the poster's clock plus delay
// (a pipe's propagation delay satisfies this by construction) — and the
// least delay of all channels is the cluster's window. fn is invoked with
// each posted argument at its posted time, on the destination engine.
func (c *Cluster) Outbox(src, dst *Engine, lane uint32, delay Time, fn func(any)) *Outbox {
	si, ok := c.index[src]
	if !ok {
		panic("sim: outbox source engine is not a cluster domain")
	}
	di, ok := c.index[dst]
	if !ok {
		panic("sim: outbox destination engine is not a cluster domain")
	}
	if si == di {
		panic("sim: outbox endpoints are in the same domain")
	}
	if delay <= 0 {
		panic("sim: boundary channel needs a positive delay")
	}
	o := &Outbox{dst: dst, lane: lane, fn: fn}
	c.outboxes = append(c.outboxes, o)
	if c.window == 0 || delay < c.window {
		c.window = delay
	}
	return o
}

// RunUntil advances every domain to deadline, round by round, flushing the
// boundary mailboxes between rounds, then spills the domains' packet free
// lists back to the shared pool (mirroring Engine.RunUntil).
func (c *Cluster) RunUntil(deadline Time) {
	if deadline < c.now {
		panic(fmt.Sprintf("sim: cluster run until %v which is before now %v", deadline, c.now))
	}
	mark := c.hostNS()
	for {
		moved := uint64(0)
		for _, o := range c.outboxes {
			moved += uint64(o.flush())
		}
		if moved > 0 {
			c.flushes++
			c.flushedMsgs += moved
		}
		if c.now >= deadline {
			break
		}
		b := c.roundBound(deadline)
		mark = c.advanceRound(b, mark)
		c.now = b
		c.Windows++
	}
	for _, e := range c.engines {
		e.drainPool()
	}
}

// roundBound fills next (each domain's earliest pending event, maxTime for
// none) and returns the bound every domain runs to this round. Without a
// boundary channel the domains cannot interact and without a pending event
// nothing can be posted: either way one round reaches the deadline.
func (c *Cluster) roundBound(deadline Time) Time {
	earliest := maxTime
	for d, e := range c.engines {
		if debugChecks && e.Now() != c.now {
			panic(fmt.Sprintf("sim: domain %d at %v, cluster at %v — clocks must agree between rounds", d, e.Now(), c.now))
		}
		c.next[d] = maxTime
		if t, ok := e.NextEventTime(); ok {
			c.next[d] = t
		}
		earliest = min(earliest, c.next[d])
	}
	if c.window == 0 || earliest == maxTime {
		return deadline
	}
	return min(max(c.now+c.window, earliest+c.window-1), deadline)
}

// hostNS reads the host's monotonic clock, as nanoseconds since the cluster
// was built. time.Since reads the monotonic clock alone where time.Now reads
// the wall clock too, and a busy dumbbell makes a hundred rounds, each with
// a read per domain and one more, per simulated millisecond.
func (c *Cluster) hostNS() int64 { return time.Since(c.epoch).Nanoseconds() }

// advanceRound takes every domain to the bound b and returns the host time
// it finished at. Domains with no event due inside the bound get a clock
// hop; the rest run one after another, and their busy time is folded into
// the load stats. mark is when the previous round finished: the wall time
// since then, flush and bound included, is the round's advance time, and
// what of it was not engine work is barrier cost. The reads of the host
// clock are chained — a domain's end is the next one's start — so a round
// costs one read per dispatched domain plus one, and a round that only
// hops clocks none: its time falls to the next.
func (c *Cluster) advanceRound(b Time, mark int64) int64 {
	c.work = c.work[:0]
	for d, e := range c.engines {
		if c.next[d] > b {
			e.runTo(b) // clock hop: nothing to fire before the bound
			continue
		}
		c.work = append(c.work, d)
	}
	if len(c.work) == 0 {
		return mark
	}
	var useful int64
	end := c.hostNS()
	for _, d := range c.work {
		start := end
		c.engines[d].runTo(b)
		end = c.hostNS()
		busy := end - start
		c.loads[d].BusyNS += busy
		c.loads[d].Runs++
		useful += busy
	}
	wall := end - mark
	c.advanceNS += wall
	c.barrierNS += max(wall-useful, 0)
	return end
}

// Close does nothing. It is kept so existing callers still compile: a
// cluster holds no goroutines or other resources beyond its memory.
func (c *Cluster) Close() {}

// DomainLoad is one domain's execution accounting: how many rounds
// dispatched real work to it and how many nanoseconds that work ran.
// Rounds that only hopped the domain's clock forward are not counted.
type DomainLoad struct {
	Domain int    `json:"domain"`
	Runs   uint64 `json:"runs"`
	BusyNS int64  `json:"busy_ns"`
}

// SyncStats is the cluster's synchronization cost report. All durations
// are host wall-clock — they never feed back into simulation results.
// AdvanceNS is the wall time of the rounds, mailbox flush and bound
// included; BarrierNS is the part of it not covered by the domains' busy
// times: the cost of the flush, the bound and the dispatch bookkeeping.
// Parallel is always false: domains run on one goroutine, and the field
// stays only to keep the JSON shape.
type SyncStats struct {
	Windows     uint64       `json:"windows"`
	Flushes     uint64       `json:"flushes"`
	FlushedMsgs uint64       `json:"flushed_msgs"`
	AdvanceNS   int64        `json:"advance_ns"`
	BarrierNS   int64        `json:"barrier_ns"`
	Parallel    bool         `json:"parallel"`
	Domains     []DomainLoad `json:"domains"`
}

// SyncStats returns a snapshot of the synchronization counters.
func (c *Cluster) SyncStats() SyncStats {
	return SyncStats{
		Windows:     c.Windows,
		Flushes:     c.flushes,
		FlushedMsgs: c.flushedMsgs,
		AdvanceNS:   c.advanceNS,
		BarrierNS:   c.barrierNS,
		Domains:     append([]DomainLoad(nil), c.loads...),
	}
}

// Outbox is the deterministic mailbox of one boundary channel: the source
// domain posts (delivery time, argument) pairs during a round, and the
// cluster flushes them onto the destination engine's heap — on the
// channel's ordering lane — once the round ends. Entries are posted in
// strictly increasing delivery time (the pipe's no-reorder rule), so a
// flush preserves the channel's FIFO order, and cross-channel ordering at
// equal instants is fixed by the lanes.
type Outbox struct {
	dst  *Engine
	lane uint32
	fn   func(any)

	entries []outboxEntry

	// peak/checks implement the shrink policy: after shrinkCheckEvery
	// flushes, a backing array grown far beyond the recent peak is
	// reallocated, so one burst window doesn't pin worst-case memory for
	// the rest of a long-running fabric's life.
	peak   int
	checks int
}

type outboxEntry struct {
	at  Time
	arg any
}

// Post records one delivery for the next flush. at must be no earlier than
// the poster's current time plus the channel's declared delay. A delivery
// with no slack at all, posted by an event due at the cluster clock, lands
// on the round's inclusive bound — after whatever the destination already
// fired at that instant, lanes notwithstanding; a pipe's serialization time
// keeps every packet strictly later.
func (o *Outbox) Post(at Time, arg any) {
	o.entries = append(o.entries, outboxEntry{at, arg})
}

// shrinkCheckEvery is how many flushes pass between shrink decisions, and
// shrinkSlack is how far capacity may exceed the recent peak before the
// backing array is reallocated.
const (
	shrinkCheckEvery = 64
	shrinkSlack      = 4
)

// flush schedules the posted deliveries on the destination engine, empties
// the mailbox, and returns how many entries it moved. The backing array is
// kept across flushes, but periodically shrunk back toward the recent peak
// so an oversized burst window doesn't pin its worst case forever.
func (o *Outbox) flush() int {
	n := len(o.entries)
	for i := range o.entries {
		e := &o.entries[i]
		o.dst.AtOrdered(o.lane, e.at, o.fn, e.arg)
		e.arg = nil
	}
	o.entries = o.entries[:0]
	if n > o.peak {
		o.peak = n
	}
	if o.checks++; o.checks >= shrinkCheckEvery {
		if cap(o.entries) > 64 && cap(o.entries) > shrinkSlack*o.peak {
			next := 2 * o.peak
			if next < 16 {
				next = 16
			}
			o.entries = make([]outboxEntry, 0, next)
		}
		o.peak, o.checks = 0, 0
	}
	return n
}
