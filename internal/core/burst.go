package core

import (
	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// BurstCursor is Table.Process under the Bind/Process/Flush names bench's
// core.burst_ns_per_pkt feeder calls. It memoizes nothing and batches
// nothing: Process is Table.Process and Flush does nothing. It is a shim,
// kept until the feeder calls Table.Process itself (ROADMAP item 5).
type BurstCursor struct {
	t *Table
}

// Bind points the cursor at a table.
func (c *BurstCursor) Bind(t *Table) { c.t = t }

// Process is Table.Process on the bound table.
func (c *BurstCursor) Process(now sim.Time, id packet.AQID, p *packet.Packet) Verdict {
	return c.t.Process(now, id, p)
}

// Flush does nothing: Process already counted every lookup.
func (c *BurstCursor) Flush() {}
