package core

import (
	"fmt"

	"aqueue/internal/ident"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// Table is the per-pipeline AQ lookup table of a switch (§4.2): a map from
// the AQ ID carried in the packet header to the deployed AQ state. A switch
// has one table for its ingress pipeline and one for its egress pipeline.
// The §6 work-conservation extension lives in the switch
// (topo.Switch.WorkConserving), which skips the table while the output
// port's physical queue is empty.
//
// Concurrency: a table has a single owner, the goroutine of the engine its
// switch runs on. Only the owner — or a caller it is parked behind, as the
// service run loop is at a window boundary — may call Process,
// ProcessFluid, Lookup, CountFluid, Deploy, DeployBatch and Remove: they
// run or replace AQs, whose registers are plain fields (see AQ), and a
// lookup may build the ID index's slice. The counters are plain fields
// too, and Stats is read under the same rule: by the service loop at a
// window boundary (its snapshot and the stats verb both run there), and by
// bench and the harness after the run has ended.
type Table struct {
	aqs ident.Index[packet.AQID, *AQ]

	// Counters, written only by the owner.
	lookups uint64
	misses  uint64

	// Fluid-lane counters, separate so the packet counters (and any
	// fingerprint folded over them) are untouched when the fluid lane is
	// off. fluidEpochs counts per-entity epoch integrations.
	fluidEpochs uint64
	fluidMisses uint64
}

// TableStats is a snapshot of the table's counters.
type TableStats struct {
	Lookups uint64 `json:"lookups"`
	Misses  uint64 `json:"misses"`
	// Fluid-lane counters; omitted while zero so snapshots taken with the
	// fluid lane disabled serialize exactly as before it existed.
	FluidEpochs uint64 `json:"fluid_epochs,omitempty"`
	FluidMisses uint64 `json:"fluid_misses,omitempty"`
}

// Stats returns a snapshot of the lookup and miss counters.
func (t *Table) Stats() TableStats {
	return TableStats{
		Lookups:     t.lookups,
		Misses:      t.misses,
		FluidEpochs: t.fluidEpochs,
		FluidMisses: t.fluidMisses,
	}
}

// NewTable returns an empty AQ table.
func NewTable() *Table { return &Table{} }

// Deploy installs (or replaces) an AQ built from cfg and returns it.
func (t *Table) Deploy(cfg Config) *AQ {
	aq := New(cfg)
	t.aqs.Set(cfg.ID, aq)
	return aq
}

// DeployBatch installs (or replaces) an AQ per config as one membership
// change. One slab holds the batch's AQs, so a lane sweeping the table in ID
// order walks contiguous memory, and an empty table is reserved for the
// batch, so its index fills its mirror in one pass and builds no map.
func (t *Table) DeployBatch(cfgs []Config) {
	t.aqs.Reserve(len(cfgs))
	slab := make([]AQ, len(cfgs))
	for i, cfg := range cfgs {
		slab[i].init(cfg)
		t.aqs.Set(cfg.ID, &slab[i])
	}
}

// Remove undeploys the AQ with the given ID.
func (t *Table) Remove(id packet.AQID) {
	t.aqs.Delete(id)
}

// Lookup returns the AQ deployed under id, or nil.
func (t *Table) Lookup(id packet.AQID) *AQ { return t.aqs.Get(id) }

// Len returns the number of deployed AQs.
func (t *Table) Len() int { return t.aqs.Len() }

// IDs returns the deployed AQ IDs in ascending order (for reports/tests).
func (t *Table) IDs() []packet.AQID { return t.aqs.Keys() }

// Process matches the packet's tag for this pipeline position and, when an
// AQ is deployed under it, runs the per-packet framework and returns its
// verdict; unmatched or untagged packets pass through.
func (t *Table) Process(now sim.Time, id packet.AQID, p *packet.Packet) Verdict {
	if id == packet.NoAQ {
		return Pass
	}
	t.lookups++
	aq := t.aqs.Get(id)
	if aq == nil {
		t.misses++
		return Pass
	}
	return aq.Process(now, p)
}

// MemoryBytes models the SRAM footprint of the deployed AQs using the
// paper's layout (§5.5, Figure 12): 4 B AQ ID, 3 B rate, 3 B limit, 3 B gap
// and 2 B last_time = 15 B per AQ.
func (t *Table) MemoryBytes() int { return t.aqs.Len() * BytesPerAQ }

// BytesPerAQ is the paper's per-AQ switch memory cost (Figure 12).
const BytesPerAQ = 15

// String summarises the table.
func (t *Table) String() string {
	s := t.Stats()
	return fmt.Sprintf("aq.Table{%d AQs, %d lookups, %d misses}", t.aqs.Len(), s.Lookups, s.Misses)
}
