package core

import (
	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// BurstCursor batches a table's per-packet work across one delivery burst
// (§5 discussion; the iRED-style decoupling of decision work from
// per-packet processing). Two costs amortize:
//
//   - the AQ lookup: consecutive packets of one burst overwhelmingly carry
//     the same tag (a back-to-back departure run is usually one flow), so
//     the cursor memoizes the last (id → aq) resolution and skips the
//     table walk — the "one register transaction" for same-entity packets;
//   - the counters: lookups and misses accumulate in plain locals and
//     flush to the table's atomics once per burst instead of once per
//     packet.
//
// Verdicts are byte-identical to Table.Process: the memo only short-cuts
// *where* the AQ pointer comes from, never what runs, and the per-table
// generation counter invalidates the memo the moment a Deploy or Remove
// changes membership mid-burst. A cursor is owned by one caller and used
// only between Bind and Flush on the engine goroutine. No caller remains in
// the tree: the type is kept for bench's core.burst_ns_per_pkt feeder until
// ROADMAP 1(a).
type BurstCursor struct {
	t   *Table
	gen uint64

	lastID   packet.AQID
	lastAQ   *AQ // may be nil: a memoized miss is still a memo hit
	haveLast bool

	lookups uint64
	misses  uint64
}

// Bind points the cursor at a table and clears any stale memo or counts.
// Call once per burst; cheap enough to call unconditionally.
func (c *BurstCursor) Bind(t *Table) {
	c.t = t
	c.gen = t.gen
	c.haveLast = false
	c.lookups, c.misses = 0, 0
}

// Process is Table.Process through the burst memo. Same verdicts, same
// per-packet counter semantics — only the atomics and the lookup coalesce.
func (c *BurstCursor) Process(now sim.Time, id packet.AQID, p *packet.Packet) Verdict {
	t := c.t
	if id == packet.NoAQ {
		return Pass
	}
	c.lookups++
	if t.gen != c.gen {
		c.gen = t.gen
		c.haveLast = false
	}
	var aq *AQ
	if c.haveLast && c.lastID == id {
		aq = c.lastAQ
	} else {
		aq = t.aqs.Get(id)
		c.lastID, c.lastAQ, c.haveLast = id, aq, true
	}
	if aq == nil {
		c.misses++
		return Pass
	}
	return t.run(now, aq, p)
}

// Flush folds the locally accumulated counts into the table's atomic
// counters — at most one atomic add per counter per burst — and resets the
// cursor for the next burst.
func (c *BurstCursor) Flush() {
	if c.t == nil {
		return
	}
	if c.lookups > 0 {
		c.t.lookups.Add(c.lookups)
	}
	if c.misses > 0 {
		c.t.misses.Add(c.misses)
	}
	c.lookups, c.misses = 0, 0
	c.haveLast = false
}
