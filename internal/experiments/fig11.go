package experiments

import (
	"fmt"

	"aqueue/internal/core"
	"aqueue/internal/harness"
	"aqueue/internal/packet"
	"aqueue/internal/units"
)

// Figures 11 and 12 report the AQ program's usage of a Tofino switch. The
// paper compiled its P4 program with the Tofino toolchain; that toolchain
// is unavailable here, so the measured usage percentages are encoded
// constants (a documented substitution in DESIGN.md), while the memory
// curve is exact arithmetic over the 15-byte-per-AQ register layout of
// Table 1 / Figure 12 (core.BytesPerAQ: 4 B AQ ID, 3 B rate, 3 B limit,
// 3 B gap, 2 B last_time).
const (
	// Figure 11's resource usage percentages as reported by the paper.
	pipelineStagesPct = 16.8
	mausPct           = 12.5
	phvSizePct        = 7.5
	sramBasePct       = 4.2 // fixed program overhead, excluding AQ entries

	// sramBudgetBytes is the switch's register SRAM budget (20 MB), in
	// line with the paper's "tens of MB" discussion.
	sramBudgetBytes = 20 * 1000 * 1000
)

// Fig11 reproduces Figure 11: the AQ program's usage of each switch
// data-plane resource class.
func Fig11(harness.Params) *harness.Result {
	t := &harness.Table{
		Title:  "Figure 11: usage of data-plane resources on the modelled Tofino switch",
		Header: []string{"resource", "usage (%)"},
	}
	t.AddRow("pipeline stages", pipelineStagesPct)
	t.AddRow("match-action units", mausPct)
	t.AddRow("PHV size", phvSizePct)
	t.AddRow("SRAM (program)", sramBasePct)
	return tables(t)
}

// Fig12Counts are the AQ population sizes of Figure 12's x-axis.
var Fig12Counts = []int{1000, 10_000, 100_000, 1_000_000, 2_000_000, 4_000_000}

// Fig12 reproduces Figure 12: switch memory consumed by n deployed AQs
// (15 bytes each) against the SRAM budget. It also deploys a live
// core.Table at the smallest size to confirm the arithmetic matches the
// implementation's own accounting.
func Fig12(harness.Params) *harness.Result {
	t := &harness.Table{
		Title:  "Figure 12: memory consumption vs number of traffic constituents",
		Header: []string{"#AQs", "memory (MB)", "SRAM used (%)", "fits?"},
	}
	for _, n := range Fig12Counts {
		bytes := n * core.BytesPerAQ
		fits := "yes"
		if bytes > sramBudgetBytes {
			fits = "no"
		}
		t.AddRow(fmt.Sprint(n), float64(bytes)/1e6, float64(bytes)/sramBudgetBytes*100, fits)
	}
	// Cross-check the arithmetic against a live table deployment.
	tbl := core.NewTable()
	for i := 1; i <= 1000; i++ {
		tbl.Deploy(core.Config{ID: packet.AQID(i), Rate: units.Gbps})
	}
	if tbl.MemoryBytes() != 1000*core.BytesPerAQ {
		panic("experiments: Figure 12 memory disagrees with core.Table accounting")
	}
	return tables(t)
}
