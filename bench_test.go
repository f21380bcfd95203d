// Package aqueue_test is the benchmark harness: one benchmark per table
// and figure of the paper's evaluation (run with `go test -bench=.`), plus
// microbenchmarks of the per-packet A-Gap hot path and ablation benches
// for the design choices DESIGN.md calls out.
//
// The figure/table benches run reduced-size versions of the experiments
// (the full-size runs are `cmd/aqsim -experiment all`) and report the
// headline quantities via b.ReportMetric so `-benchmem` output doubles as
// a regression record.
package aqueue_test

import (
	"fmt"
	"testing"

	"aqueue/internal/core"
	"aqueue/internal/experiments"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// ---------------------------------------------------------------------------
// Microbenchmarks: the per-packet data-plane cost that makes AQ scalable.

func BenchmarkAGapUpdate(b *testing.B) {
	aq := core.New(core.Config{ID: 1, Rate: 10 * units.Gbps})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		aq.Update(sim.Time(i)*800, 1040)
	}
}

func BenchmarkAGapProcessDrop(b *testing.B) {
	aq := core.New(core.Config{ID: 1, Rate: 10 * units.Gbps})
	p := packet.NewData(0, 1, 1, 0, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		aq.Process(sim.Time(i)*800, p)
		p.VirtualDelay = 0
	}
}

func BenchmarkAGapProcessECN(b *testing.B) {
	aq := core.New(core.Config{ID: 1, Rate: 10 * units.Gbps, CC: core.ECNType})
	p := packet.NewData(0, 1, 1, 0, 1000)
	p.EcnCapable = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		aq.Process(sim.Time(i)*800, p)
		p.CE = false
		p.VirtualDelay = 0
	}
}

// BenchmarkTableMillionAQs exercises the R3 scalability requirement: one
// switch pipeline holding a million AQs, packets spread across all of them.
func BenchmarkTableMillionAQs(b *testing.B) {
	tbl := core.NewTable()
	const n = 1_000_000
	for i := 1; i <= n; i++ {
		tbl.Deploy(core.Config{ID: packet.AQID(i), Rate: units.Gbps})
	}
	b.ReportMetric(float64(tbl.MemoryBytes())/1e6, "modelMB")
	p := packet.NewData(0, 1, 1, 0, 1000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := packet.AQID(i%n + 1)
		tbl.Process(sim.Time(i)*100, id, p)
		p.VirtualDelay = 0
	}
}

// ---------------------------------------------------------------------------
// One benchmark per paper figure/table.

func BenchmarkFig1CCInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig1(60*sim.Millisecond, 1, false)
		if len(t.Rows) != len(experiments.Fig1Pairs) {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig3StrawmanVsAGap(b *testing.B) {
	var lastD, lastA float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(8)
		lastD, lastA = r.PeaksD[7], r.PeaksA[7]
	}
	b.ReportMetric(lastD, "Dpeak-gbps")
	b.ReportMetric(lastA, "Apeak-gbps")
}

func BenchmarkFig6CompletionVsVMs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig6([]int{1, 4}, 40, 1, 1, false)
		if len(t.Rows) != 2 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig7EntityFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig7([]int{4}, 40, 1, 1, false)
		if len(t.Rows) != 1 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig8FlowCountIsolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig8([]int{1, 16}, 60*sim.Millisecond, 1, false)
		if len(t.Rows) != 2 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig9UDPvsTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pq, aq := experiments.Fig9(40*sim.Millisecond, 1, false)
		if len(pq.Rows) != 5 || len(aq.Rows) != 5 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig10CCWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fair, total := experiments.Fig10(30, 1, 1, false)
		if len(fair.Rows) == 0 || len(total.Rows) == 0 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig11SwitchResources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig11().Rows) != 4 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig12MemoryScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig12().Rows) != len(experiments.Fig12Counts) {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkTable2CCSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table2(60*sim.Millisecond, 1, false)
		if len(t.Rows) != len(experiments.Table2Settings) {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkTable3VMGuarantee(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table3(1, false)
		if len(t.Rows) != 6 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkTable4AQvsPQBehaviour(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		_, rows := experiments.Table4(1, false)
		rel = rows[0].RelP95DeltaPct
	}
	b.ReportMetric(rel, "cubic-p95-rel%")
}

// BenchmarkExtFabric runs the leaf-spine extension (isolation across ECMP
// and the incast inbound guarantee).
func BenchmarkExtFabric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.ExtFabric(50*sim.Millisecond, 1, false).Rows) != 3 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkExtPerEntityQueues runs the DRR-vs-AQ scaling comparison.
func BenchmarkExtPerEntityQueues(b *testing.B) {
	var drr, aq float64
	for i := 0; i < b.N; i++ {
		drr, aq = experiments.ExtPerEntityQueues(32, 8, 50*sim.Millisecond, 1, false)
	}
	b.ReportMetric(drr, "drr-jain")
	b.ReportMetric(aq, "aq-jain")
}

// BenchmarkFluidBG runs the fluid-background fidelity experiment (fig6 and
// fig9 with their backgrounds as fluid rate ODEs) and reports the worst
// foreground deviation from the all-packet baseline.
func BenchmarkFluidBG(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r := experiments.FluidBG(60*sim.Millisecond, 12, 1, 1, false)
		worst = r.MaxDeltaPct()
	}
	b.ReportMetric(worst, "maxdelta-pct")
}

// ---------------------------------------------------------------------------
// Ablations for the design choices DESIGN.md calls out.

// BenchmarkAblationAQLimit sweeps the AQ limit (the §6 configuration
// discussion): too small a limit drops excessively and starves the entity;
// the default tracks the physical-queue limit.
func BenchmarkAblationAQLimit(b *testing.B) {
	for _, limit := range []int{4_000, 40_000, 400_000} {
		limit := limit
		b.Run(fmt.Sprintf("limit=%dKB", limit/1000), func(b *testing.B) {
			var gbps float64
			for i := 0; i < b.N; i++ {
				gbps = experiments.AblationAQLimit(limit, 60*sim.Millisecond)
			}
			b.ReportMetric(gbps, "gbps")
		})
	}
}

// BenchmarkAblationWorkConservation compares strict AQ enforcement with the
// §6 empty-queue bypass when half the allocation is idle.
func BenchmarkAblationWorkConservation(b *testing.B) {
	for _, wc := range []bool{false, true} {
		wc := wc
		name := "strict"
		if wc {
			name = "bypass"
		}
		b.Run(name, func(b *testing.B) {
			var gbps float64
			for i := 0; i < b.N; i++ {
				gbps = experiments.AblationWorkConservation(wc, 60*sim.Millisecond)
			}
			b.ReportMetric(gbps, "gbps")
		})
	}
}

// BenchmarkAblationWeightedRebalance compares the controller's active-set
// rebalancing (§4.1) against static weighted rates when an entity goes
// idle: without rebalance the idle share is wasted.
func BenchmarkAblationWeightedRebalance(b *testing.B) {
	for _, rebalance := range []bool{false, true} {
		rebalance := rebalance
		name := "static"
		if rebalance {
			name = "rebalance"
		}
		b.Run(name, func(b *testing.B) {
			var gbps float64
			for i := 0; i < b.N; i++ {
				gbps = experiments.AblationWeightedRebalance(rebalance, 60*sim.Millisecond)
			}
			b.ReportMetric(gbps, "gbps")
		})
	}
}

// BenchmarkAblationReallocator compares static weighted allocations with
// the §6 arrival-rate reallocator when one entity under-uses its share.
func BenchmarkAblationReallocator(b *testing.B) {
	for _, on := range []bool{false, true} {
		on := on
		name := "static"
		if on {
			name = "realloc"
		}
		b.Run(name, func(b *testing.B) {
			var gbps float64
			for i := 0; i < b.N; i++ {
				gbps = experiments.AblationReallocator(on, 100*sim.Millisecond)
			}
			b.ReportMetric(gbps, "gbps")
		})
	}
}
