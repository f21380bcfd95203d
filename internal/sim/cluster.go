package sim

import (
	"fmt"
	"time"
)

// Cluster runs a partitioned simulation: a topology is split into N
// domains, each owning a private Engine (clock, event heap, packet free
// list, ID/seed sequences), synchronized by conservative lookahead.
//
// The protocol is null-message-free windowed PDES, scheduled per channel
// rather than through one global window. Every boundary channel (an
// Outbox) declares its minimum propagation delay at creation; the cluster
// keeps the per-domain-pair minimum as a lookahead matrix. Between rounds
// the coordinator computes, for every domain d, a bound on how far d can
// safely run:
//
//	bound[d] = min over incoming channels s→d of
//	           max( now[s] + delay(s→d),            // inclusive floor
//	                horizon(s→d, EAT[s]) − 1 )       // strict dynamic term
//
// where EAT[d] — the earliest instant domain d can possibly process an
// event — is the least fixpoint of
//
//	EAT[d] = min( nextEvent(d), min over s→d of EAT[s] + delay(s→d) )
//
// computed by relaxation (all delays are positive, so it converges), and
// horizon is the channel's own refinement: a boundary pipe reports
// max(max(EAT[s], txFreeAt) + delay, lastPlan+1), so a backlogged uplink's
// serialization backlog becomes extra lookahead for its destination. The
// floor term reproduces the classic guarantee (anything s posts while
// running leaves no earlier than its clock plus the channel delay) and
// keeps the laggard domain always runnable; the EAT terms let loosely
// coupled or momentarily idle neighbourhoods stride far past the static
// window, which is what cuts the number of rounds — and with it the
// barrier and flush passes — on real topologies.
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
// (single-threaded) construction, a scenario's results are a pure function
// of the topology and workload — byte-identical for any N, and identical
// whether the domains of a round run cooperatively or on workers (the
// bounds are computed from parked engine state either way).
//
// Construction is always single-threaded. RunUntil advances the domains
// of each round sequentially by default ("cooperative" mode, always
// safe); SetParallel (or the WithParallelDomains option) runs them on one
// persistent worker goroutine per domain, parked on a channel barrier
// between rounds. That is only sound when nothing crosses domains outside
// the mailboxes at runtime — no shared meters, no cross-domain flow
// registration — as in a fat tree of setup-only flows and the fabric
// service (whose runtime mutations all go through its boundary-only
// mailbox). Long-lived embedders must Close a parallel cluster to release
// the workers.
type Cluster struct {
	engines []*Engine
	seqs    seqTable
	index   map[*Engine]int

	lanes     uint32
	lookahead Time // min reported link delay; 0 until a link is reported
	parallel  bool
	now       Time

	outboxes []*Outbox
	inChans  [][]*Outbox // incoming boundary channels, per destination domain
	la       []Time      // lookahead matrix: la[src*N+dst] = min channel delay, 0 = no channel
	minIn    []Time      // per-domain stride quantum: min incoming channel delay, 0 = no incoming

	// Per-round scratch, sized N at construction.
	next  []Time // earliest local pending event per domain (maxTime = none)
	eat   []Time // earliest-activity fixpoint per domain
	bound []Time // per-domain advance bound for the current round
	work  []int  // domains with events due inside their bound

	workers []*domainWorker

	// Windows counts synchronization rounds executed, for tests and
	// SyncStats.
	Windows uint64

	flushes     uint64
	flushedMsgs uint64
	advanceNS   int64
	barrierNS   int64
	loads       []DomainLoad
}

// NewCluster returns a cluster of n fresh engines (n >= 1), each configured
// by the process defaults overridden with the same opts. The
// WithParallelDomains option pre-selects parallel execution (see
// SetParallel).
func NewCluster(n int, opts ...Option) *Cluster {
	if n < 1 {
		panic("sim: cluster needs at least one domain")
	}
	c := &Cluster{
		engines: make([]*Engine, n),
		index:   make(map[*Engine]int, n),
		inChans: make([][]*Outbox, n),
		la:      make([]Time, n*n),
		minIn:   make([]Time, n),
		next:    make([]Time, n),
		eat:     make([]Time, n),
		bound:   make([]Time, n),
		work:    make([]int, 0, n),
		loads:   make([]DomainLoad, n),
	}
	for i := range c.engines {
		c.engines[i] = NewEngine(opts...)
		c.engines[i].multiDomain = n > 1
		c.index[c.engines[i]] = i
		c.loads[i].Domain = i
	}
	c.parallel = c.engines[0].Options().ParallelDomains
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

// NextSeq draws from the named cluster-scoped sequence. Builders derive
// component identities and RNG seeds from cluster sequences (not engine
// ones) so that a component's identity depends only on construction order,
// never on which domain it was placed in.
func (c *Cluster) NextSeq(name string) uint64 { return c.seqs.next(c.seqs.domain(name)) }

// SeqDomain registers the named cluster sequence and returns its handle;
// see Engine.SeqDomain.
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

// ObserveLinkDelay folds one link's propagation delay into the global
// lookahead floor. Builders report every link — not just boundary ones —
// so Lookahead stays a property of the topology alone; the scheduler
// itself runs on the per-channel matrix built by Outbox.
func (c *Cluster) ObserveLinkDelay(d Time) {
	if d <= 0 {
		return
	}
	if c.lookahead == 0 || d < c.lookahead {
		c.lookahead = d
	}
}

// Lookahead returns the global synchronization floor: the minimum reported
// link delay, or 0 when no link has been reported yet.
func (c *Cluster) Lookahead() Time { return c.lookahead }

// PairLookahead returns the lookahead matrix entry for src→dst: the
// minimum declared delay of the boundary channels from domain src into
// domain dst, or 0 when no channel connects them.
func (c *Cluster) PairLookahead(src, dst int) Time { return c.la[src*len(c.engines)+dst] }

// SetParallel switches RunUntil between advancing a round's domains
// sequentially (false, the default, always safe) and on the persistent
// domain workers (true; sound only for scenarios with no cross-domain
// state outside the mailboxes).
func (c *Cluster) SetParallel(on bool) { c.parallel = on }

// Parallel reports whether the cluster advances domains on workers.
func (c *Cluster) Parallel() bool { return c.parallel }

// Outbox creates the mailbox for one boundary channel from src's domain
// into dst's domain, delivering on the given ordering lane, and registers
// it for flushing and lookahead. delay is the channel's minimum latency
// promise: every Post must carry a delivery time at least the poster's
// clock plus delay (a pipe's propagation delay satisfies this by
// construction). fn is invoked with each posted argument at its posted
// time, on the destination engine.
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
	o := &Outbox{dst: dst, lane: lane, fn: fn, srcDom: si, dstDom: di, delay: delay}
	c.outboxes = append(c.outboxes, o)
	c.inChans[di] = append(c.inChans[di], o)
	n := len(c.engines)
	if cur := c.la[si*n+di]; cur == 0 || delay < cur {
		c.la[si*n+di] = delay
	}
	if cur := c.minIn[di]; cur == 0 || delay < cur {
		c.minIn[di] = delay
	}
	c.ObserveLinkDelay(delay)
	return o
}

// RunUntil advances every domain to deadline, round by round, flushing the
// boundary mailboxes between rounds, then spills the domains' packet free
// lists back to the shared pool (mirroring Engine.RunUntil).
func (c *Cluster) RunUntil(deadline Time) {
	if deadline < c.now {
		panic(fmt.Sprintf("sim: cluster run until %v which is before now %v", deadline, c.now))
	}
	if len(c.outboxes) == 0 {
		// No boundary links: the domains cannot interact, so each runs
		// straight to the deadline in one round.
		if c.now < deadline {
			for d := range c.engines {
				c.bound[d] = deadline
				c.next[d] = 0 // force full dispatch, workers included
			}
			c.advanceRound(deadline)
			c.now = deadline
			c.Windows++
		}
	} else {
		c.runRounds(deadline)
	}
	for _, e := range c.engines {
		e.drainPool()
	}
}

// runRounds is the windowed loop: flush, compute per-domain bounds from
// the lookahead matrix and the EAT fixpoint, advance, repeat until every
// domain reaches the deadline.
func (c *Cluster) runRounds(deadline Time) {
	for {
		moved := uint64(0)
		for _, o := range c.outboxes {
			moved += uint64(o.flush())
		}
		if moved > 0 {
			c.flushes++
			c.flushedMsgs += moved
		}
		done := true
		for _, e := range c.engines {
			if e.Now() < deadline {
				done = false
				break
			}
		}
		if done {
			break
		}
		c.computeEAT()
		for d := range c.engines {
			c.bound[d] = c.boundFor(d, deadline)
		}
		c.advanceRound(deadline)
		c.Windows++
	}
	c.now = deadline
}

// computeEAT fills next (each domain's earliest local pending event) and
// eat (the least fixpoint of next under channel relaxation): eat[d] lower-
// bounds the next instant domain d processes anything, however events
// cascade through the boundary channels. maxTime means "never again".
func (c *Cluster) computeEAT() {
	for d, e := range c.engines {
		if t, ok := e.NextEventTime(); ok {
			c.next[d] = t
		} else {
			c.next[d] = maxTime
		}
		c.eat[d] = c.next[d]
	}
	for changed := true; changed; {
		changed = false
		for _, o := range c.outboxes {
			s := c.eat[o.srcDom]
			if s >= maxTime {
				continue
			}
			if t := s + o.delay; t < c.eat[o.dstDom] {
				c.eat[o.dstDom] = t
				changed = true
			}
		}
	}
}

// boundFor computes how far domain d may run this round. Every incoming
// channel contributes the later of its inclusive floor (the source clock
// plus the channel delay — the classic conservative window, which keeps
// the laggard always runnable) and its strict dynamic term (the channel
// horizon at the source's EAT, minus one so a delivery at exactly the
// horizon still lands strictly in d's future). A source that can never
// post again (EAT = maxTime) contributes no constraint.
func (c *Cluster) boundFor(d int, deadline Time) Time {
	b := deadline
	for _, o := range c.inChans[d] {
		s := o.srcDom
		if c.eat[s] >= maxTime {
			continue
		}
		hz := c.eat[s] + o.delay
		if o.horizon != nil {
			if h := o.horizon(c.eat[s]); h > hz {
				hz = h
			}
		}
		lim := hz - 1
		if floor := c.engines[s].Now() + o.delay; floor > lim {
			lim = floor
		}
		if lim < b {
			b = lim
		}
	}
	if now := c.engines[d].Now(); b < now {
		b = now
	}
	return b
}

// advanceRound runs every domain with enough headroom to its bound.
// Headroom below the domain's stride quantum (its minimum incoming channel
// delay) is left to accumulate — a loosely coupled domain then wakes once
// per large stride instead of inching along with the tightest pair in the
// cluster. The global laggard's bound always clears its own quantum (every
// source clock is at or ahead of it), so at least one domain advances
// every round and the loop cannot stall; a bound that already reached the
// deadline is always taken, so the final catch-up cannot be deferred.
// Domains with no event due inside the bound get a coordinator-side clock
// hop; the rest are dispatched — to the persistent workers in parallel
// mode, inline otherwise — and their busy time is folded into the load
// stats. The wall time of the dispatch minus the useful work is accounted
// as barrier cost.
func (c *Cluster) advanceRound(deadline Time) {
	start := time.Now()
	c.work = c.work[:0]
	progressed := false
	for d, e := range c.engines {
		b := c.bound[d]
		now := e.Now()
		if b <= now {
			continue
		}
		if b < deadline && b-now < c.minIn[d] {
			continue // below the stride quantum: let headroom accumulate
		}
		progressed = true
		if c.next[d] > b {
			e.runTo(b) // clock hop: nothing to fire before the bound
			continue
		}
		c.work = append(c.work, d)
	}
	if !progressed {
		panic("sim: cluster round made no progress — lookahead invariant broken")
	}
	if c.parallel && len(c.work) > 1 {
		if c.workers == nil {
			c.startWorkers()
		}
		for _, d := range c.work {
			c.workers[d].work <- c.bound[d]
		}
		var maxBusy int64
		for _, d := range c.work {
			busy := <-c.workers[d].done
			c.loads[d].BusyNS += busy
			c.loads[d].Runs++
			if busy > maxBusy {
				maxBusy = busy
			}
		}
		wall := time.Since(start).Nanoseconds()
		c.advanceNS += wall
		if wall > maxBusy {
			c.barrierNS += wall - maxBusy
		}
	} else {
		var sum int64
		for _, d := range c.work {
			t0 := time.Now()
			c.engines[d].runTo(c.bound[d])
			busy := time.Since(t0).Nanoseconds()
			c.loads[d].BusyNS += busy
			c.loads[d].Runs++
			sum += busy
		}
		wall := time.Since(start).Nanoseconds()
		c.advanceNS += wall
		if wall > sum {
			c.barrierNS += wall - sum
		}
	}
}

// domainWorker is one domain's persistent executor: a goroutine parked on
// the work channel between rounds. The channel send/receive pair is the
// round barrier — it publishes the coordinator's pre-round state to the
// worker and the worker's post-round engine state back, so the coordinator
// may freely read engine and pipe state between rounds even in parallel
// mode.
type domainWorker struct {
	eng  *Engine
	work chan Time
	done chan int64
}

func (w *domainWorker) loop() {
	for target := range w.work {
		start := time.Now()
		w.eng.runTo(target)
		w.done <- time.Since(start).Nanoseconds()
	}
}

// startWorkers spawns the persistent domain workers; called lazily on the
// first parallel round so cooperative clusters never pay for goroutines.
func (c *Cluster) startWorkers() {
	c.workers = make([]*domainWorker, len(c.engines))
	for i, e := range c.engines {
		w := &domainWorker{eng: e, work: make(chan Time), done: make(chan int64)}
		c.workers[i] = w
		go w.loop()
	}
}

// Close releases the persistent domain workers, if parallel execution ever
// started them. It is idempotent, and the cluster stays usable — a later
// parallel round simply starts fresh workers. Long-lived embedders (the
// fabric service, benchmark loops constructing many clusters) must call it
// so parked goroutines don't accumulate.
func (c *Cluster) Close() {
	for _, w := range c.workers {
		close(w.work)
	}
	c.workers = nil
}

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
// BarrierNS is the dispatch wall time not covered by useful engine work
// (sum of busy times cooperatively, the longest domain's busy time in
// parallel mode): the cost of the barrier, the dispatch bookkeeping, and —
// in parallel mode — load imbalance.
type SyncStats struct {
	Windows     uint64       `json:"windows"`
	Flushes     uint64       `json:"flushes"`
	FlushedMsgs uint64       `json:"flushed_msgs"`
	AdvanceNS   int64        `json:"advance_ns"`
	BarrierNS   int64        `json:"barrier_ns"`
	Parallel    bool         `json:"parallel"`
	Domains     []DomainLoad `json:"domains"`
}

// SyncStats returns a snapshot of the synchronization counters. Call it
// between runs (or after Close); in parallel mode the workers are parked
// then, so the per-domain numbers are stable.
func (c *Cluster) SyncStats() SyncStats {
	return SyncStats{
		Windows:     c.Windows,
		Flushes:     c.flushes,
		FlushedMsgs: c.flushedMsgs,
		AdvanceNS:   c.advanceNS,
		BarrierNS:   c.barrierNS,
		Parallel:    c.parallel,
		Domains:     append([]DomainLoad(nil), c.loads...),
	}
}

// Outbox is the deterministic mailbox of one boundary channel: the source
// domain posts (delivery time, argument) pairs during a round, and the
// cluster flushes them onto the destination engine's heap — on the
// channel's ordering lane — once the round ends. Entries are posted in
// strictly increasing delivery time (the pipe's no-reorder rule), so a
// flush preserves the channel's FIFO order, and cross-channel ordering at
// equal instants is fixed by the lanes. Exactly one goroutine (the source
// domain's) posts to an outbox and flushes happen between rounds on the
// coordinator, so the mailbox is SPSC by protocol and needs no locks even
// in parallel mode.
type Outbox struct {
	dst  *Engine
	lane uint32
	fn   func(any)

	srcDom, dstDom int
	delay          Time
	// horizon, when set, refines the channel's lookahead: given a lower
	// bound on the source domain's next activity it returns a lower bound
	// on the earliest delivery the channel can still produce (a pipe folds
	// its transmitter backlog and no-reorder watermark in). Read by the
	// coordinator between rounds only.
	horizon func(Time) Time

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

// SetHorizon installs the channel's dynamic lookahead refinement; see the
// horizon field. The returned time must never exceed any delivery the
// channel can still post.
func (o *Outbox) SetHorizon(fn func(Time) Time) { o.horizon = fn }

// Post records one delivery for the next flush. at must be no earlier than
// the poster's current time plus the channel's declared delay.
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
