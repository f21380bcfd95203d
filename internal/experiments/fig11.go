package experiments

import (
	"fmt"

	"aqueue/internal/control"
	"aqueue/internal/core"
	"aqueue/internal/harness"
	"aqueue/internal/packet"
	"aqueue/internal/units"
)

// Fig11 reproduces Figure 11: the AQ program's usage of each switch
// data-plane resource class (see internal/control's resource model and the
// DESIGN.md substitution note for the Tofino toolchain).
func Fig11(harness.Params) *harness.Result {
	m := control.NewResourceModel()
	t := &harness.Table{
		Title:  "Figure 11: usage of data-plane resources on the modelled Tofino switch",
		Header: []string{"resource", "usage (%)"},
	}
	for _, u := range m.StaticUsage() {
		t.AddRow(u.Resource, u.Percent)
	}
	return tables(t)
}

// Fig12Counts are the AQ population sizes of Figure 12's x-axis.
var Fig12Counts = []int{1000, 10_000, 100_000, 1_000_000, 2_000_000, 4_000_000}

// Fig12 reproduces Figure 12: switch memory consumed by n deployed AQs
// (15 bytes each) against the SRAM budget. It also deploys a live
// core.Table at the smaller sizes to confirm the model matches the
// implementation's own accounting.
func Fig12(harness.Params) *harness.Result {
	m := control.NewResourceModel()
	t := &harness.Table{
		Title:  "Figure 12: memory consumption vs number of traffic constituents",
		Header: []string{"#AQs", "memory (MB)", "SRAM used (%)", "fits?"},
	}
	for _, n := range Fig12Counts {
		mb := float64(m.MemoryBytes(n)) / 1e6
		fits := "yes"
		if m.MemoryBytes(n) > m.TotalSRAMBytes {
			fits = "no"
		}
		t.AddRow(fmt.Sprint(n), mb, m.SRAMPct(n), fits)
	}
	// Cross-check the model against a live table deployment.
	tbl := core.NewTable()
	for i := 1; i <= 1000; i++ {
		tbl.Deploy(core.Config{ID: packet.AQID(i), Rate: units.Gbps})
	}
	if tbl.MemoryBytes() != m.MemoryBytes(1000) {
		panic("experiments: resource model disagrees with core.Table accounting")
	}
	return tables(t)
}
