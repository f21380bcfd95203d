// Simulation-core benchmarks: the hot path a packet takes through the
// simulator — engine events, pipes, physical queues, AQ pipelines,
// transport. The scenarios live in internal/benchcore so that
// `cmd/aqsim -benchcore` records the exact same workloads into
// BENCH_simcore.json and the perf trajectory accumulates per PR.
package aqueue_test

import (
	"testing"

	"aqueue/internal/benchcore"
	"aqueue/internal/sim"
)

// BenchmarkSingleBottleneckForwarding is the headline forwarding benchmark:
// one op is a 10 ms single-bottleneck run with the default burst size.
// ns/op and allocs/op divided by the pkts metric give the per-packet cost;
// the events metric shows the burst amortization (events dispatched per op).
func BenchmarkSingleBottleneckForwarding(b *testing.B) {
	b.ReportAllocs()
	var r benchcore.BottleneckResult
	for i := 0; i < b.N; i++ {
		r = benchcore.RunSingleBottleneck(10 * sim.Millisecond)
	}
	b.ReportMetric(float64(r.TxPackets), "pkts")
	b.ReportMetric(float64(r.Events), "events")
}

// BenchmarkSingleBottleneckForwardingNoBurst is the same scenario with
// burst draining disabled — the per-packet reference path.
func BenchmarkSingleBottleneckForwardingNoBurst(b *testing.B) {
	b.ReportAllocs()
	var r benchcore.BottleneckResult
	for i := 0; i < b.N; i++ {
		r = benchcore.RunSingleBottleneck(10*sim.Millisecond, sim.WithBurstSize(0))
	}
	b.ReportMetric(float64(r.TxPackets), "pkts")
	b.ReportMetric(float64(r.Events), "events")
}

// BenchmarkDrainRun is the back-to-back departure scenario burst mode is
// built for: one op queues 20k packets onto an idle 10 Gbps pipe at t=0
// and drains them to a sink. With nothing else on the calendar the whole
// drain is one long run, so events/op collapses toward pkts/burst.
func BenchmarkDrainRun(b *testing.B) {
	b.ReportAllocs()
	var delivered, events uint64
	for i := 0; i < b.N; i++ {
		delivered, _, events, _ = benchcore.RunDrain(20_000)
	}
	b.ReportMetric(float64(delivered), "pkts")
	b.ReportMetric(float64(events), "events")
}

// TestDrainRunBurstParity pins the drain scenario's two burst-mode claims:
// the traffic is byte-identical with burst draining on and off, and the
// burst pass dispatches well under a tenth of the per-packet pass's events.
func TestDrainRunBurstParity(t *testing.T) {
	const pkts = 5000
	d, end, ev, inl := benchcore.RunDrain(pkts)
	refD, refEnd, refEv, refInl := benchcore.RunDrain(pkts, sim.WithBurstSize(0))
	if d != pkts || refD != pkts {
		t.Fatalf("delivered %d burst vs %d per-packet, want %d", d, refD, pkts)
	}
	if end != refEnd {
		t.Fatalf("final clock %d burst vs %d per-packet", end, refEnd)
	}
	if refInl != 0 {
		t.Fatalf("burst-off pass inlined %d deliveries", refInl)
	}
	if ev+inl != refEv+refInl {
		t.Fatalf("event+inline total %d burst vs %d per-packet", ev+inl, refEv+refInl)
	}
	if ev*10 >= refEv {
		t.Fatalf("burst drain dispatched %d events vs %d per-packet — expected >10x cut", ev, refEv)
	}
}

// BenchmarkEngineChurn measures the event core in isolation under the same
// self-perpetuating timer workload -benchcore uses; one op is one fired
// event.
func BenchmarkEngineChurn(b *testing.B) {
	b.ReportAllocs()
	benchcore.RunEngineChurn(b.N, 1024)
}

// BenchmarkFatTreeSingleEngine and BenchmarkFatTreePartitioned bracket the
// partitioned large-fabric scenario -benchcore records: a k=4 fat tree with
// all-cross-pod long flows, run whole vs split into two cooperative
// domains. Comparing the two isolates the windowed-synchronization
// overhead; any parallel speedup on multicore hosts comes on top of it.
func BenchmarkFatTreeSingleEngine(b *testing.B) {
	b.ReportAllocs()
	var pkts uint64
	for i := 0; i < b.N; i++ {
		pkts, _ = benchcore.RunFatTree(4, 5*sim.Millisecond, 1, false)
	}
	b.ReportMetric(float64(pkts), "pkts")
}

func BenchmarkFatTreePartitioned(b *testing.B) {
	b.ReportAllocs()
	var pkts uint64
	for i := 0; i < b.N; i++ {
		pkts, _ = benchcore.RunFatTree(4, 5*sim.Millisecond, 2, false)
	}
	b.ReportMetric(float64(pkts), "pkts")
}
