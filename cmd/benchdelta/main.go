// Command benchdelta compares two BENCH_simcore.json records and prints a
// markdown table of the interesting deltas — forwarding ns/packet,
// allocs/op, engine ns/event, fat-tree partitioning overhead, fluid-lane
// entity throughput and fidelity, and sweep speedup/utilization. CI runs it with the committed record and a freshly
// regenerated one and appends the output to the job summary; it is
// informational and never fails on a slow result (shared runners are
// noisy), only on unreadable input.
//
// The record format grows across PRs (the sweep section, then the fattree
// section, arrived after the first committed records), so each table row
// degrades independently: an entry absent on either side is reported as
// "incomparable" instead of failing the comparison or inventing a zero.
//
// Usage:
//
//	benchdelta OLD.json NEW.json
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// record mirrors the parts of the aq-benchcore document the delta report
// needs. Every leaf is a pointer so that a field a record predates is
// distinguishable from a measured zero; unknown fields are ignored so
// schema growth stays backward compatible in the other direction too.
type record struct {
	Schema     string  `json:"schema"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Current    metrics `json:"current"`
}

type metrics struct {
	Engine *struct {
		NsPerEvent *float64 `json:"ns_per_event"`
	} `json:"engine"`
	Forwarding *struct {
		NsPerPacket     *float64 `json:"ns_per_packet"`
		AllocsPerOp     *float64 `json:"allocs_per_op"`
		EventsPerPacket *float64 `json:"events_per_packet"`
	} `json:"forwarding"`
	Drain *struct {
		EventsPerPacket *float64 `json:"events_per_packet"`
		Identical       *bool    `json:"identical"`
	} `json:"drain"`
	FatTree *struct {
		Domains          int      `json:"domains"`
		SingleNS         *float64 `json:"single_ns"`
		PartitionedNS    *float64 `json:"partitioned_ns"`
		Windows          *float64 `json:"windows"`
		BarrierNS        *float64 `json:"barrier_ns"`
		Utilization      *float64 `json:"utilization"`
		ParallelMeasured bool     `json:"parallel_measured"`
		Identical        *bool    `json:"identical"`
	} `json:"fattree"`
	Fluid *fluidSection `json:"fluid"`
	Sweep *struct {
		Workers     int      `json:"workers"`
		Speedup     *float64 `json:"speedup"`
		Utilization *float64 `json:"utilization"`
		Identical   *bool    `json:"identical"`
	} `json:"sweep"`
}

// fluidSection is the million-entity fluid record (a later schema
// addition, so like the others every leaf degrades independently). The
// 10M-entity variant and the heap/skip leaves arrived another schema
// generation later, under the same rules.
type fluidSection struct {
	Scale            *fluidScale `json:"scale"`
	Scale10M         *fluidScale `json:"scale_10m"`
	FidelityDeltaPct *float64    `json:"fidelity_delta_pct"`
}

type fluidScale struct {
	Entities           int      `json:"entities"`
	NsPerEntityEpoch   *float64 `json:"ns_per_entity_epoch"`
	EntityEpochsPerSec *float64 `json:"entity_epochs_per_sec"`
	HeapBytesPerEntity *float64 `json:"heap_bytes_per_entity"`
	QuiescentSkipPct   *float64 `json:"quiescent_skip_pct"`
	Identical          *bool    `json:"identical"`
}

// scaleOf guards the doubly-nested fluid scale section.
func scaleOf(m metrics) *fluidScale {
	if m.Fluid == nil {
		return nil
	}
	return m.Fluid.Scale
}

// scale10MOf guards the 10M-entity variant the same way.
func scale10MOf(m metrics) *fluidScale {
	if m.Fluid == nil {
		return nil
	}
	return m.Fluid.Scale10M
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdelta OLD.json NEW.json")
		os.Exit(2)
	}
	if err := report(os.Stdout, os.Args[1], os.Args[2]); err != nil {
		fatalf("%v", err)
	}
}

// report renders the full delta table for the two record paths.
func report(w io.Writer, oldPath, newPath string) error {
	oldRec, err := read(oldPath)
	if err != nil {
		return fmt.Errorf("%s: %w", oldPath, err)
	}
	newRec, err := read(newPath)
	if err != nil {
		return fmt.Errorf("%s: %w", newPath, err)
	}

	fmt.Fprintf(w, "### Simulation-core benchmark delta\n\n")
	fmt.Fprintf(w, "Baseline `%s` (%s, GOMAXPROCS=%d) vs fresh `%s` (%s, GOMAXPROCS=%d).\n\n",
		oldPath, oldRec.GoVersion, oldRec.GOMAXPROCS,
		newPath, newRec.GoVersion, newRec.GOMAXPROCS)
	fmt.Fprintf(w, "| metric | baseline | fresh | delta |\n")
	fmt.Fprintf(w, "|---|---:|---:|---:|\n")

	o, n := oldRec.Current, newRec.Current
	row(w, "forwarding ns/packet",
		fieldOf(o.Forwarding, func() *float64 { return o.Forwarding.NsPerPacket }),
		fieldOf(n.Forwarding, func() *float64 { return n.Forwarding.NsPerPacket }))
	normalizedForwardingRow(w, o, n)
	row(w, "forwarding allocs/op",
		fieldOf(o.Forwarding, func() *float64 { return o.Forwarding.AllocsPerOp }),
		fieldOf(n.Forwarding, func() *float64 { return n.Forwarding.AllocsPerOp }))
	row(w, "forwarding events/packet",
		fieldOf(o.Forwarding, func() *float64 { return o.Forwarding.EventsPerPacket }),
		fieldOf(n.Forwarding, func() *float64 { return n.Forwarding.EventsPerPacket }))
	row(w, "drain events/packet",
		fieldOf(o.Drain, func() *float64 { return o.Drain.EventsPerPacket }),
		fieldOf(n.Drain, func() *float64 { return n.Drain.EventsPerPacket }))
	boolRow(w, "drain identical",
		fieldOf(o.Drain, func() *bool { return o.Drain.Identical }),
		fieldOf(n.Drain, func() *bool { return n.Drain.Identical }))
	row(w, "engine ns/event",
		fieldOf(o.Engine, func() *float64 { return o.Engine.NsPerEvent }),
		fieldOf(n.Engine, func() *float64 { return n.Engine.NsPerEvent }))
	row(w, "fat-tree single-engine ns/op",
		fieldOf(o.FatTree, func() *float64 { return o.FatTree.SingleNS }),
		fieldOf(n.FatTree, func() *float64 { return n.FatTree.SingleNS }))
	row(w, "fat-tree partitioned ns/op",
		fieldOf(o.FatTree, func() *float64 { return o.FatTree.PartitionedNS }),
		fieldOf(n.FatTree, func() *float64 { return n.FatTree.PartitionedNS }))
	row(w, "fat-tree windows/run",
		fieldOf(o.FatTree, func() *float64 { return o.FatTree.Windows }),
		fieldOf(n.FatTree, func() *float64 { return n.FatTree.Windows }))
	row(w, "fat-tree barrier ns/op",
		fieldOf(o.FatTree, func() *float64 { return o.FatTree.BarrierNS }),
		fieldOf(n.FatTree, func() *float64 { return n.FatTree.BarrierNS }))
	row(w, "fat-tree utilization",
		fieldOf(o.FatTree, func() *float64 { return o.FatTree.Utilization }),
		fieldOf(n.FatTree, func() *float64 { return n.FatTree.Utilization }))
	boolRow(w, "fat-tree identical",
		fieldOf(o.FatTree, func() *bool { return o.FatTree.Identical }),
		fieldOf(n.FatTree, func() *bool { return n.FatTree.Identical }))
	oScale, nScale := scaleOf(o), scaleOf(n)
	fluidName := "fluid ns/entity-epoch"
	if oScale != nil && nScale != nil {
		fluidName = fmt.Sprintf("fluid ns/entity-epoch (%d→%d entities)",
			oScale.Entities, nScale.Entities)
	}
	row(w, fluidName,
		fieldOf(oScale, func() *float64 { return oScale.NsPerEntityEpoch }),
		fieldOf(nScale, func() *float64 { return nScale.NsPerEntityEpoch }))
	row(w, "fluid entity-epochs/sec",
		fieldOf(oScale, func() *float64 { return oScale.EntityEpochsPerSec }),
		fieldOf(nScale, func() *float64 { return nScale.EntityEpochsPerSec }))
	row(w, "fluid heap bytes/entity",
		fieldOf(oScale, func() *float64 { return oScale.HeapBytesPerEntity }),
		fieldOf(nScale, func() *float64 { return nScale.HeapBytesPerEntity }))
	row(w, "fluid quiescent-skip %",
		fieldOf(oScale, func() *float64 { return oScale.QuiescentSkipPct }),
		fieldOf(nScale, func() *float64 { return nScale.QuiescentSkipPct }))
	boolRow(w, "fluid identical",
		fieldOf(oScale, func() *bool { return oScale.Identical }),
		fieldOf(nScale, func() *bool { return nScale.Identical }))
	o10, n10 := scale10MOf(o), scale10MOf(n)
	row(w, "fluid 10M ns/entity-epoch",
		fieldOf(o10, func() *float64 { return o10.NsPerEntityEpoch }),
		fieldOf(n10, func() *float64 { return n10.NsPerEntityEpoch }))
	row(w, "fluid 10M heap bytes/entity",
		fieldOf(o10, func() *float64 { return o10.HeapBytesPerEntity }),
		fieldOf(n10, func() *float64 { return n10.HeapBytesPerEntity }))
	row(w, "fluid 10M quiescent-skip %",
		fieldOf(o10, func() *float64 { return o10.QuiescentSkipPct }),
		fieldOf(n10, func() *float64 { return n10.QuiescentSkipPct }))
	boolRow(w, "fluid 10M identical",
		fieldOf(o10, func() *bool { return o10.Identical }),
		fieldOf(n10, func() *bool { return n10.Identical }))
	row(w, "fluid fidelity delta %",
		fieldOf(o.Fluid, func() *float64 { return o.Fluid.FidelityDeltaPct }),
		fieldOf(n.Fluid, func() *float64 { return n.Fluid.FidelityDeltaPct }))
	sweepName := "sweep speedup"
	if o.Sweep != nil && n.Sweep != nil {
		sweepName = fmt.Sprintf("sweep speedup (%d→%d workers)", o.Sweep.Workers, n.Sweep.Workers)
	}
	row(w, sweepName,
		fieldOf(o.Sweep, func() *float64 { return o.Sweep.Speedup }),
		fieldOf(n.Sweep, func() *float64 { return n.Sweep.Speedup }))
	row(w, "sweep utilization",
		fieldOf(o.Sweep, func() *float64 { return o.Sweep.Utilization }),
		fieldOf(n.Sweep, func() *float64 { return n.Sweep.Utilization }))
	boolRow(w, "sweep identical",
		fieldOf(o.Sweep, func() *bool { return o.Sweep.Identical }),
		fieldOf(n.Sweep, func() *bool { return n.Sweep.Identical }))

	fmt.Fprintln(w)
	fmt.Fprintln(w, "_Lower is better for the timing rows; numbers from shared runners are noisy._")
	return nil
}

// machineSpeedTolerance is how far the two records' engine ns/event may
// diverge before the raw forwarding delta is considered dominated by host
// speed rather than by a code change.
const machineSpeedTolerance = 0.15

// normalizedForwardingRow adds a machine-speed-normalized view of the
// forwarding cost when the two records clearly come from hosts of
// different speeds. The engine's ns/event is the repository's purest
// single-core churn number (a tight heap/dispatch loop with no topology
// in it), so expressing forwarding cost in engine events — (forwarding
// ns/packet) / (engine ns/event) — cancels the host out. A baseline
// recorded on a slower box then stops reading as a regression on a
// faster one and vice versa; the residual delta is the code's.
func normalizedForwardingRow(w io.Writer, o, n metrics) {
	oFwd := fieldOf(o.Forwarding, func() *float64 { return o.Forwarding.NsPerPacket })
	nFwd := fieldOf(n.Forwarding, func() *float64 { return n.Forwarding.NsPerPacket })
	oEv := fieldOf(o.Engine, func() *float64 { return o.Engine.NsPerEvent })
	nEv := fieldOf(n.Engine, func() *float64 { return n.Engine.NsPerEvent })
	if oFwd == nil || nFwd == nil || oEv == nil || nEv == nil ||
		*oEv <= 0 || *nEv <= 0 || *oFwd <= 0 {
		return
	}
	speed := *nEv / *oEv
	if diff := speed - 1; diff < machineSpeedTolerance && diff > -machineSpeedTolerance {
		return // same-speed hosts: the raw row is already honest
	}
	oNorm := *oFwd / *oEv
	nNorm := *nFwd / *nEv
	fmt.Fprintf(w, "| forwarding events-equivalent/packet (speed-normalized) | %.2f | %.2f | %+.1f%% |\n",
		oNorm, nNorm, (nNorm-oNorm)/oNorm*100)
	fmt.Fprintf(w, "| ↳ engine churn differs %+.0f%% between hosts; read the normalized row, not the raw one | | | |\n",
		(speed-1)*100)
}

// fieldOf guards a leaf access behind its section pointer: it returns nil
// when the section itself is absent, and the leaf pointer (possibly nil)
// otherwise.
func fieldOf[S, T any](section *S, leaf func() *T) *T {
	if section == nil {
		return nil
	}
	return leaf()
}

// row prints one numeric comparison. Entries a record predates render as
// "incomparable" with an em-dash value, so diffing a fresh record against
// an old-schema baseline degrades per entry instead of failing.
func row(w io.Writer, name string, oldV, newV *float64) {
	if oldV == nil || newV == nil {
		fmt.Fprintf(w, "| %s | %s | %s | incomparable |\n", name, numOrDash(oldV), numOrDash(newV))
		return
	}
	delta := "n/a"
	if *oldV != 0 {
		delta = fmt.Sprintf("%+.1f%%", (*newV-*oldV) / *oldV * 100)
	}
	fmt.Fprintf(w, "| %s | %.2f | %.2f | %s |\n", name, *oldV, *newV, delta)
}

// boolRow prints one boolean comparison under the same absence rules.
func boolRow(w io.Writer, name string, oldV, newV *bool) {
	if oldV == nil || newV == nil {
		fmt.Fprintf(w, "| %s | %s | %s | incomparable |\n", name, boolOrDash(oldV), boolOrDash(newV))
		return
	}
	fmt.Fprintf(w, "| %s | %v | %v | |\n", name, *oldV, *newV)
}

func numOrDash(v *float64) string {
	if v == nil {
		return "—"
	}
	return fmt.Sprintf("%.2f", *v)
}

func boolOrDash(v *bool) string {
	if v == nil {
		return "—"
	}
	return fmt.Sprintf("%v", *v)
}

func read(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.Schema == "" {
		return nil, fmt.Errorf("no schema field — not a benchcore record")
	}
	return &r, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
