package core

import (
	"aqueue/internal/packet"
)

// StreamCursor batches a table's per-entity fluid work across one lane
// epoch, the fluid analogue of BurstCursor. Two costs amortize:
//
//   - the AQ lookup: a run of same-tag entities resolves its AQ once, and
//     the cursor memoizes the last (id → aq) resolution, so a run chunked
//     by the lane's scratch cap re-resolves with one integer compare;
//   - the counters: fluidEpochs/fluidMisses accumulate in plain locals and
//     flush to the table's atomics once per epoch instead of once per
//     entity (two contended atomic adds per entity at a million entities).
//
// Feedback is byte-identical to Table.ProcessFluid: the memo only
// short-cuts *where* the AQ pointer comes from, never what runs, and the
// per-table generation counter invalidates the memo the moment a Deploy or
// Remove changes membership mid-epoch. A cursor is owned by one lane and
// used only between Bind/Flush on the engine goroutine.
type StreamCursor struct {
	t   *Table
	gen uint64

	lastID   packet.AQID
	lastAQ   *AQ // may be nil: a memoized miss is still a memo hit
	haveLast bool

	epochs uint64
	misses uint64
}

// Bind points the cursor at a table and clears any stale memo or counts.
// Call once per epoch; cheap enough to call unconditionally.
func (c *StreamCursor) Bind(t *Table) {
	c.t = t
	c.gen = t.gen
	c.haveLast = false
	c.epochs, c.misses = 0, 0
}

// ResolveRun is ProcessFluid's tag match for a run of n same-tag entities
// through the epoch memo: it counts n per-entity epoch integrations (and n
// misses when nothing is deployed under id) and returns the deployed AQ, or
// nil for a miss (pass-through — the caller accepts everything, as
// ProcessFluid does). Callers must handle packet.NoAQ themselves: untagged
// streams never reach the table and touch no counter, exactly like
// ProcessFluid's early return.
func (c *StreamCursor) ResolveRun(id packet.AQID, n int) *AQ {
	c.epochs += uint64(n)
	t := c.t
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
		c.misses += uint64(n)
	}
	return aq
}

// Flush folds the locally accumulated counts into the table's atomic
// counters — at most one atomic add per counter per epoch — and resets the
// cursor for the next epoch.
func (c *StreamCursor) Flush() {
	if c.t == nil {
		return
	}
	if c.epochs > 0 {
		c.t.fluidEpochs.Add(c.epochs)
	}
	if c.misses > 0 {
		c.t.fluidMisses.Add(c.misses)
	}
	c.epochs, c.misses = 0, 0
	c.haveLast = false
}
