// Package aqueue_test is the benchmark harness: one sub-benchmark per
// registered experiment (run with `go test -bench=.`), plus
// microbenchmarks of the per-packet A-Gap hot path and ablation benches
// for the design choices DESIGN.md calls out.
//
// The experiment benches run the quick versions of the experiments (the
// full-size runs are `cmd/aqsim -experiment all`) and report their
// metrics via b.ReportMetric so `-benchmem` output doubles as a
// regression record.
package aqueue_test

import (
	"fmt"
	"testing"

	"aqueue/internal/core"
	"aqueue/internal/experiments"
	"aqueue/internal/harness"
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
// Every registered experiment, at quick parameters.

// BenchmarkExperiments runs each registered experiment — every figure and
// table of the paper's evaluation plus the extensions — once per
// iteration at DefaultParams(true), and reports each of its metrics.
// Select some with a second-level pattern, e.g.
// -bench 'Experiments/^(fig3|fig11|fig12)$'.
func BenchmarkExperiments(b *testing.B) {
	p := experiments.DefaultParams(true)
	for _, name := range harness.Names() {
		run, _ := harness.Get(name)
		b.Run(name, func(b *testing.B) {
			var res *harness.Result
			for i := 0; i < b.N; i++ {
				res = run(p)
				if len(res.Tables) == 0 {
					b.Fatal("no tables")
				}
			}
			for k, v := range res.Metrics {
				b.ReportMetric(v, k)
			}
		})
	}
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
