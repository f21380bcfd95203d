// Package benchcore holds the simulation-core benchmark scenarios shared
// by the `go test -bench` suite and `cmd/aqsim -benchcore`: an engine-only
// event churn, the single-bottleneck forwarding macro-scenario, and the
// full quick experiment sweep. Keeping them here means the CLI records the
// exact workload the benchmarks measure, so BENCH_simcore.json numbers and
// `go test -bench` output stay comparable across PRs.
package benchcore

import (
	"fmt"
	"runtime"
	"time"

	"aqueue/internal/cc"
	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
)

// BottleneckResult is one single-bottleneck run's outcome: the packets put
// on the bottleneck wire (the quantity the forwarding benchmark normalizes
// by) and the engine's event accounting — events dispatched through the
// scheduler plus deliveries drained inline by burst mode, whose sum is the
// same for any burst size.
type BottleneckResult struct {
	TxPackets uint64
	Events    uint64
	Inlined   uint64
}

// RunSingleBottleneck forwards traffic from four entities (two CUBIC flows
// each, tagged with per-entity ingress AQs) plus one unreactive UDP blaster
// through a shared 10 Gbps dumbbell bottleneck for the given horizon, on an
// engine configured with opts.
func RunSingleBottleneck(horizon sim.Time, opts ...sim.Option) BottleneckResult {
	eng := sim.NewEngine(opts...)
	spec := topo.DefaultSim()
	d := topo.NewDumbbell(eng, 4, 4, spec, spec)
	for i := 0; i < 4; i++ {
		d.S1.Ingress.Deploy(core.Config{ID: packet.AQID(i + 1), Rate: 2 * units.Gbps})
	}
	var senders []*transport.Sender
	for i := 0; i < 4; i++ {
		opt := transport.Options{IngressAQ: packet.AQID(i + 1)}
		for j := 0; j < 2; j++ {
			s := transport.NewSender(d.Left[i], d.Right[i], 0, cc.NewCubic(), opt)
			s.Start(0)
			senders = append(senders, s)
		}
	}
	u := transport.NewUDPSender(d.Left[0], d.Right[3], 3*units.Gbps,
		transport.Options{IngressAQ: 1})
	u.Start(0)
	eng.RunUntil(horizon)
	for _, s := range senders {
		s.Stop()
	}
	u.Stop()
	return BottleneckResult{
		TxPackets: d.Bottleneck.TxPackets,
		Events:    eng.Processed,
		Inlined:   eng.Inlined,
	}
}

// RunEngineChurn drives an engine-only workload: width self-perpetuating
// timers, each firing re-arming itself, until the requested number of
// events has fired. It isolates the event core from the network model, and
// rides the Timer API, so it measures the wheel lane.
func RunEngineChurn(events int, width int) {
	if width > events {
		width = events
	}
	eng := sim.NewEngine()
	fired := 0
	for i := 0; i < width; i++ {
		interval := sim.Time(i + 1)
		var t *sim.Timer
		t = eng.NewTimer(func() {
			fired++
			if fired+width <= events {
				t.RearmAfter(interval)
			}
		})
		t.ArmAfter(interval)
	}
	eng.Run()
}

// EngineResult is the engine micro-benchmark record.
type EngineResult struct {
	Events       int     `json:"events"`
	WallNS       int64   `json:"wall_ns"`
	NsPerEvent   float64 `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// MeasureEngine times RunEngineChurn over the given number of events.
func MeasureEngine(events int) EngineResult {
	const width = 1024
	RunEngineChurn(events/16, width) // warm-up: heat the free list and heap
	start := time.Now()
	RunEngineChurn(events, width)
	wall := time.Since(start)
	return EngineResult{
		Events:       events,
		WallNS:       wall.Nanoseconds(),
		NsPerEvent:   float64(wall.Nanoseconds()) / float64(events),
		EventsPerSec: float64(events) / wall.Seconds(),
	}
}

// ForwardingResult is the macro forwarding benchmark record. One op is a
// full single-bottleneck run over the configured horizon, executed with the
// configured burst size; a second, untimed-for-comparison pass with burst
// mode off records the per-packet baseline event count, and Identical
// reports whether both passes put exactly the same traffic on the wire —
// the burst determinism gate at benchmark scope.
type ForwardingResult struct {
	Runs         int    `json:"runs"`
	HorizonNS    int64  `json:"horizon_ns"`
	BurstSize    int    `json:"burst_size"`
	PacketsPerOp uint64 `json:"packets_per_op"`

	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	NsPerPacket   float64 `json:"ns_per_packet"`
	PacketsPerSec float64 `json:"packets_per_sec"`

	// EventsPerOp counts events dispatched through the scheduler per run;
	// InlinedPerOp counts deliveries burst mode drained without an event.
	// EventsPerPacket = EventsPerOp / PacketsPerOp is the headline
	// amortization metric; NoBurstEventsPerPacket is the same ratio with
	// burst mode off (where InlinedPerOp is zero by construction).
	EventsPerOp            uint64  `json:"events_per_op"`
	InlinedPerOp           uint64  `json:"inlined_per_op"`
	EventsPerPacket        float64 `json:"events_per_packet"`
	NoBurstEventsPerPacket float64 `json:"no_burst_events_per_packet"`
	Identical              bool    `json:"identical"`
}

// MeasureForwarding runs the single-bottleneck scenario `runs` times at the
// given burst size and reports per-op wall time plus per-op allocation
// counts from runtime.MemStats (measured across all runs, divided back out
// — the same accounting `go test -bench` uses). One extra untimed pass with
// burst mode off records the baseline events/packet and checks the two
// modes delivered identical traffic.
func MeasureForwarding(runs int, horizon sim.Time, burst int) ForwardingResult {
	opts := []sim.Option{sim.WithBurstSize(burst)}
	r := RunSingleBottleneck(horizon, opts...) // warm-up: fill the packet pool
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < runs; i++ {
		r = RunSingleBottleneck(horizon, opts...)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	ref := RunSingleBottleneck(horizon, sim.WithBurstSize(0))
	nsPerOp := float64(wall.Nanoseconds()) / float64(runs)
	return ForwardingResult{
		Runs:         runs,
		HorizonNS:    int64(horizon),
		BurstSize:    burst,
		PacketsPerOp: r.TxPackets,

		NsPerOp:       nsPerOp,
		AllocsPerOp:   float64(after.Mallocs-before.Mallocs) / float64(runs),
		BytesPerOp:    float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
		NsPerPacket:   nsPerOp / float64(r.TxPackets),
		PacketsPerSec: float64(r.TxPackets) * float64(runs) / wall.Seconds(),

		EventsPerOp:            r.Events,
		InlinedPerOp:           r.Inlined,
		EventsPerPacket:        float64(r.Events) / float64(r.TxPackets),
		NoBurstEventsPerPacket: float64(ref.Events) / float64(ref.TxPackets),
		Identical:              r.TxPackets == ref.TxPackets,
	}
}

// drainSink counts and recycles packets delivered by a drain run.
type drainSink struct {
	pool *packet.Pool
	n    uint64
}

func (s *drainSink) Receive(p *packet.Packet) {
	s.n++
	s.pool.Release(p)
}

// DrainResult is the drain-run benchmark record: one op queues `packets`
// back-to-back onto an idle 10 Gbps pipe and runs the engine until the
// buffer empties into a sink. With nothing else on the calendar every
// departure is part of one long back-to-back run — the regime burst mode
// is built for — so events/packet collapses toward 1/burst, whereas the
// closed-loop forwarding scenario's interleaved ACK and pacing events keep
// its runs short. The two scenarios bracket burst mode's range.
type DrainResult struct {
	Runs         int    `json:"runs"`
	PacketsPerOp uint64 `json:"packets_per_op"`
	BurstSize    int    `json:"burst_size"`

	NsPerOp     float64 `json:"ns_per_op"`
	NsPerPacket float64 `json:"ns_per_packet"`

	EventsPerOp            uint64  `json:"events_per_op"`
	InlinedPerOp           uint64  `json:"inlined_per_op"`
	EventsPerPacket        float64 `json:"events_per_packet"`
	NoBurstEventsPerPacket float64 `json:"no_burst_events_per_packet"`
	Identical              bool    `json:"identical"`
}

// RunDrain queues `packets` MSS-sized packets onto an idle pipe at t=0 and
// drains them to a sink. It returns delivered packets, the engine's final
// clock, and the event accounting.
func RunDrain(packets int, opts ...sim.Option) (delivered uint64, end sim.Time, events, inlined uint64) {
	eng := sim.NewEngine(opts...)
	sink := &drainSink{pool: packet.PoolFor(eng)}
	pipe := topo.NewPipe(eng, 10*units.Gbps, 5*sim.Microsecond, 0, 0, sink)
	for i := 0; i < packets; i++ {
		pipe.Send(sink.pool.NewData(1, 2, 1, int64(i)*packet.DefaultMSS, packet.DefaultMSS))
	}
	eng.Run()
	return sink.n, eng.Now(), eng.Processed, eng.Inlined
}

// MeasureDrain times RunDrain at the given burst size, plus one untimed
// burst-off pass for the events/packet baseline and the identity check.
func MeasureDrain(runs, packets, burst int) DrainResult {
	opts := []sim.Option{sim.WithBurstSize(burst)}
	RunDrain(packets, opts...) // warm-up: fill the packet pool
	var delivered, events, inlined uint64
	var end sim.Time
	start := time.Now()
	for i := 0; i < runs; i++ {
		delivered, end, events, inlined = RunDrain(packets, opts...)
	}
	wall := time.Since(start)
	refDelivered, refEnd, refEvents, _ := RunDrain(packets, sim.WithBurstSize(0))
	nsPerOp := float64(wall.Nanoseconds()) / float64(runs)
	return DrainResult{
		Runs:         runs,
		PacketsPerOp: delivered,
		BurstSize:    burst,

		NsPerOp:     nsPerOp,
		NsPerPacket: nsPerOp / float64(delivered),

		EventsPerOp:            events,
		InlinedPerOp:           inlined,
		EventsPerPacket:        float64(events) / float64(delivered),
		NoBurstEventsPerPacket: float64(refEvents) / float64(refDelivered),
		Identical:              delivered == refDelivered && end == refEnd,
	}
}

// FatTreeResult is the partitioned large-fabric benchmark record: one op is
// a full k-ary fat-tree run over the configured horizon, measured once on a
// single engine and once split into Domains conservative time-synced
// domains. ParallelMeasured reports whether the partitioned pass actually
// ran its domains on goroutines: on a GOMAXPROCS=1 host a "parallel"
// wall-clock would be fiction, so the pass runs cooperatively instead, the
// speedup is omitted, and Note says why — the same honesty convention the
// sweep benchmark uses for worker counts beyond GOMAXPROCS.
type FatTreeResult struct {
	K                int     `json:"k"`
	Domains          int     `json:"domains"`
	HorizonNS        int64   `json:"horizon_ns"`
	PacketsPerOp     uint64  `json:"packets_per_op"`
	SingleNS         int64   `json:"single_ns"`
	PartitionedNS    int64   `json:"partitioned_ns"`
	Windows          uint64  `json:"windows"`
	ParallelMeasured bool    `json:"parallel_measured"`
	Speedup          float64 `json:"speedup,omitempty"`
	// The sync-cost breakdown of the partitioned pass, from
	// sim.Cluster.SyncStats: FlushedMsgs counts boundary deliveries moved at
	// round barriers, BarrierNS is wall time spent in barrier/flush/bound
	// work rather than inside domains, AdvanceNS the whole partitioned
	// wall. These are host wall-clock figures — they never feed simulated
	// results — and they are what the windows-per-run reduction is gated on
	// when a parallel speedup cannot be measured.
	Flushes     uint64 `json:"flushes"`
	FlushedMsgs uint64 `json:"flushed_msgs"`
	BarrierNS   int64  `json:"barrier_ns"`
	AdvanceNS   int64  `json:"advance_ns"`
	// DomainLoads is the per-domain busy breakdown of the partitioned pass;
	// Utilization is sum(busy)/(domains × partitioned wall) — near 1/domains
	// on a cooperative pass, approaching 1.0 on a well-balanced parallel
	// pass.
	DomainLoads []sim.DomainLoad `json:"domain_loads,omitempty"`
	Utilization float64          `json:"utilization,omitempty"`
	// Identical reports whether the partitioned run delivered exactly the
	// same traffic as the single-engine run — the cross-domain determinism
	// check at benchmark scope.
	Identical bool   `json:"identical"`
	Note      string `json:"note,omitempty"`
}

// SpeedupTarget is the acceptance bar for a measured parallel pass on a
// wide (k >= 8) fabric: the partitioned run must beat the single engine by
// at least this factor, or the benchmark run fails.
const SpeedupTarget = 2.0

// CheckSpeedup enforces the parallel acceptance bar. It applies only to
// results whose parallel pass was actually measured (GOMAXPROCS >= domains)
// on a k >= 8 fabric; cooperative passes and small fabrics return nil, so
// the gate arms itself automatically the moment the host has the cores.
func (r FatTreeResult) CheckSpeedup() error {
	if !r.ParallelMeasured || r.K < 8 {
		return nil
	}
	if r.Speedup < SpeedupTarget {
		return fmt.Errorf("benchcore: parallel k=%d fat tree across %d domains reached %.2fx, below the %.1fx bar",
			r.K, r.Domains, r.Speedup, SpeedupTarget)
	}
	return nil
}

// RunFatTree drives a k-ary fat tree partitioned into the given number of
// domains: every host opens one long CUBIC flow to its counterpart two pods
// over, so all traffic crosses the core and every agg<->core boundary
// mailbox carries load. The workload is setup-only (no runtime callbacks
// reach across domains), which is what makes the parallel window mode sound
// for it. It returns total delivered data packets and the cluster's sync
// accounting (rounds, flushes, barrier cost, per-domain load).
func RunFatTree(k int, horizon sim.Time, domains int, parallel bool) (delivered uint64, stats sim.SyncStats) {
	c := sim.NewCluster(domains)
	defer c.Close()
	c.SetParallel(parallel)
	spec := topo.DefaultSim()
	f := topo.NewFatTreeIn(c, k, spec, spec)
	n := len(f.Hosts)
	perPod := f.HostsPerPod()
	for i, src := range f.Hosts {
		dst := f.Hosts[(i+2*perPod)%n]
		s := transport.NewSender(src, dst, 0, cc.NewCubic(), transport.Options{})
		s.Start(sim.Time(i) * 10 * sim.Microsecond)
	}
	c.RunUntil(horizon)
	for _, h := range f.Hosts {
		delivered += h.RxPackets
	}
	return delivered, c.SyncStats()
}

// MeasureFatTree times the fat-tree scenario single-engine vs partitioned.
// The partitioned pass advances its domains on goroutines only when the
// host actually has cores to back them (GOMAXPROCS >= domains); otherwise
// it runs cooperatively and the record says so instead of inventing a
// speedup.
func MeasureFatTree(k int, horizon sim.Time, domains int) FatTreeResult {
	if domains < 2 {
		domains = 2
	}
	r := FatTreeResult{K: k, Domains: domains, HorizonNS: int64(horizon)}

	RunFatTree(k, horizon/4, 1, false) // warm-up: heat pools and heaps
	start := time.Now()
	single, _ := RunFatTree(k, horizon, 1, false)
	r.SingleNS = time.Since(start).Nanoseconds()
	r.PacketsPerOp = single

	r.ParallelMeasured = runtime.GOMAXPROCS(0) >= domains
	if !r.ParallelMeasured {
		r.Note = "GOMAXPROCS < domains: partitioned pass ran cooperatively; a parallel speedup cannot be measured on this host"
	}
	start = time.Now()
	parted, sync := RunFatTree(k, horizon, domains, r.ParallelMeasured)
	r.PartitionedNS = time.Since(start).Nanoseconds()
	r.Windows = sync.Windows
	r.Flushes = sync.Flushes
	r.FlushedMsgs = sync.FlushedMsgs
	r.BarrierNS = sync.BarrierNS
	r.AdvanceNS = sync.AdvanceNS
	r.DomainLoads = sync.Domains
	if r.PartitionedNS > 0 && len(sync.Domains) > 0 {
		var busy int64
		for _, d := range sync.Domains {
			busy += d.BusyNS
		}
		r.Utilization = float64(busy) / (float64(r.PartitionedNS) * float64(len(sync.Domains)))
	}
	r.Identical = parted == single
	if r.ParallelMeasured && r.PartitionedNS > 0 {
		r.Speedup = float64(r.SingleNS) / float64(r.PartitionedNS)
	}
	return r
}
