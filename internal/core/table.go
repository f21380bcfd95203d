package core

import (
	"fmt"
	"sync/atomic"

	"aqueue/internal/ident"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/trace"
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
// ProcessFluid, Lookup, the cursors, Deploy, DeployBatch and Remove: they
// run or replace AQs, whose registers are plain fields (see AQ), and a
// lookup may build the ID index's slice. What other
// goroutines may do while the owner works is observe: Stats reads atomic
// counters. Its readers are the service loop, which snapshots them into
// telemetry at window boundaries, and bench, after a run.
type Table struct {
	aqs ident.Index[packet.AQID, *AQ]

	// gen counts membership changes (Deploy/Remove). The cursors snapshot
	// it so a memoized lookup can never survive a change of the AQ an ID
	// resolves to.
	gen uint64

	// trace, when non-nil, receives AQDrop and AQMark events — the two
	// outcomes only the AQ layer can observe. traceWhere labels them.
	trace      trace.Sink
	traceWhere string

	// Counters. Atomic for the one writer / many readers contract above,
	// so a Stats call from another goroutine never races the owner.
	lookups atomic.Uint64
	misses  atomic.Uint64

	// Fluid-lane counters, separate so the packet counters (and any
	// fingerprint folded over them) are untouched when the fluid lane is
	// off. fluidEpochs counts per-entity epoch integrations.
	fluidEpochs atomic.Uint64
	fluidMisses atomic.Uint64
}

// TableStats is a consistent-enough snapshot of the table's counters
// (each counter is read atomically; the set is not fenced as a group,
// which is fine for reporting).
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
		Lookups:     t.lookups.Load(),
		Misses:      t.misses.Load(),
		FluidEpochs: t.fluidEpochs.Load(),
		FluidMisses: t.fluidMisses.Load(),
	}
}

// NewTable returns an empty AQ table.
func NewTable() *Table { return &Table{} }

// Deploy installs (or replaces) an AQ built from cfg and returns it.
func (t *Table) Deploy(cfg Config) *AQ {
	aq := New(cfg)
	t.aqs.Set(cfg.ID, aq)
	t.gen++
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
	t.gen++
}

// Remove undeploys the AQ with the given ID.
func (t *Table) Remove(id packet.AQID) {
	t.aqs.Delete(id)
	t.gen++
}

// Lookup returns the AQ deployed under id, or nil.
func (t *Table) Lookup(id packet.AQID) *AQ { return t.aqs.Get(id) }

// Len returns the number of deployed AQs.
func (t *Table) Len() int { return t.aqs.Len() }

// IDs returns the deployed AQ IDs in ascending order (for reports/tests).
func (t *Table) IDs() []packet.AQID { return t.aqs.Keys() }

// Process matches the packet's tag for this pipeline position and, when an
// AQ is deployed under it, runs the per-packet framework. It returns Drop
// only when a matched AQ drops the packet; unmatched or untagged packets
// pass through.
func (t *Table) Process(now sim.Time, id packet.AQID, p *packet.Packet) Verdict {
	if id == packet.NoAQ {
		return Pass
	}
	t.lookups.Add(1)
	aq := t.aqs.Get(id)
	if aq == nil {
		t.misses.Add(1)
		return Pass
	}
	return t.run(now, aq, p)
}

// run executes the matched AQ's per-packet framework, recording trace
// events when a sink is attached. Shared by Process and BurstCursor.
func (t *Table) run(now sim.Time, aq *AQ, p *packet.Packet) Verdict {
	if t.trace == nil {
		return aq.Process(now, p)
	}
	marksBefore := aq.marks
	v := aq.Process(now, p)
	if v == Drop {
		t.trace.Record(trace.FromPacket(now, trace.AQDrop, p, t.traceWhere))
	} else if aq.marks != marksBefore {
		t.trace.Record(trace.FromPacket(now, trace.AQMark, p, t.traceWhere))
	}
	return v
}

// SetTrace attaches a sink that receives an AQDrop or AQMark event for
// every packet the table's AQs drop or ECN-mark, labelled with where.
// A nil sink detaches tracing; the hot path then pays one branch.
func (t *Table) SetTrace(s trace.Sink, where string) {
	t.trace = s
	t.traceWhere = where
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
