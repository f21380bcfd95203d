package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"aqueue/internal/sim"
)

// slices is how many RunUntil calls one iteration's horizon is cut into.
// The cut exists so the run is timed in parts a quiet moment of the host
// can cover (floorSum), so the traced run has ten run.slice spans per
// iteration, and so the share-error window (the second half) has a
// boundary to read counters at; the untraced run makes the same ten calls,
// so both do identical simulated work.
const slices = 10

// stopwatch times consecutive parts of one stretch of work.
type stopwatch struct {
	last  time.Time
	parts []time.Duration
}

func startWatch() *stopwatch { return &stopwatch{last: time.Now()} }

// lap closes the part that began at the previous lap (or at startWatch).
func (sw *stopwatch) lap() {
	now := time.Now()
	sw.parts = append(sw.parts, now.Sub(sw.last))
	sw.last = now
}

// seconds converts one iteration's parts for the harness's samples.
func seconds(parts []time.Duration) []float64 {
	out := make([]float64, len(parts))
	for i, d := range parts {
		out[i] = d.Seconds()
	}
	return out
}

// workload is one set of inputs the benchmark runs. iterate builds the
// scenario from scratch, runs it, checks it and returns what it measured;
// every call with the same seed does bit-identical simulated work.
type workload struct {
	name string
	why  string
	unit string // what one unit of work_per_s is
	// iterate runs one iteration. rec is nil on the untraced run; hp is nil
	// on every iteration but the one the harness reads the heap in.
	iterate func(seed uint64, rec *recorder, hp *heapProbe) iterOut
	// replay, when non-nil, runs the same session by another route and
	// returns its fingerprint, which must equal the iterations'.
	replay func(seed uint64, rec *recorder) (string, error)
}

// heapProbe is called, outside both timers, at the two points of an
// iteration where the harness reads the live heap: once the scenario is
// built and before its first event runs, and once the run has reached its
// horizon, every piece of scenario state still referenced.
type heapProbe struct{ built, ran func() }

func (hp *heapProbe) atBuilt() {
	if hp != nil {
		hp.built()
	}
}

func (hp *heapProbe) atRan() {
	if hp != nil {
		hp.ran()
	}
}

// iterOut is one iteration's measurements.
type iterOut struct {
	// setup and run are the timed parts of the build (topology, deploy,
	// attach) and of the run (its slices or blocks), in order. Every
	// iteration of a workload has the same parts doing the same work, which
	// is what lets the harness take each part's floor on its own.
	setup, run []time.Duration
	work       uint64  // work units done in run
	latencyUs  float64 // simulated p50 packet latency at the hooked hosts; 0 on daemon_session
	shareErr   float64 // max over entities of |achieved-granted|/granted, percent
	digest     uint64  // over every deterministic counter
	counts     opCounts
	violations []string // failed invariants, empty when the iteration is sound
	// rtts holds host-time round trips by verb, in µs (daemon_session).
	rtts map[string][]float64
	// attempted/failed count wire requests and non-OK responses
	// (daemon_session); simulation workloads leave them zero and the
	// harness counts the iteration as one operation.
	attempted, failed int
	statsReplyBytes   int
	fingerprint       string // daemon_session: the wire-driven run's fingerprint
}

// opCounts are the public counters read after an iteration: the op counts
// the layer budget multiplies feeder costs by, and the source of every
// *count* layer metric. All but the NS fields repeat exactly for a seed.
type opCounts struct {
	Events, Inlined uint64 // sim.Engine.Stats, summed over engines
	PendingSum      uint64 // Σ Engine.Pending() over the `slices` slice boundaries

	PktHops            uint64 // Σ Pipe.TxPackets over every pipe
	FifoEnq, FifoDrop  uint64 // Σ FIFOStats over every pipe
	BneckEnq           uint64 // bottleneck pipe only
	BneckDrop          uint64
	BneckMaxBytes      int
	SwitchRx           uint64
	SwitchAQDrops      uint64
	SwitchAQBypassed   uint64
	HostRx             uint64
	Lookups, Misses    uint64 // Σ Table.Stats over every pipeline table
	AQArrived          uint64 // Σ AQ.Stats over every deployed AQ
	AQDrops, AQMarks   uint64
	PoolGets           uint64 // packets created: data, retransmits, ACKs, datagrams
	TCPData, TCPRetx   uint64
	TCPTimeouts        uint64
	TCPFastRecovers    uint64
	AcksByAlg          map[string]uint64 // ACKs delivered to senders, by CC algorithm
	NewSenders         uint64
	UDPSent            uint64
	EntityEpochs       uint64 // fluid.LaneStats, summed over lanes
	SkippedEE          uint64
	EEByModel          map[string]uint64 // stepped (not skipped) entity-epochs by model
	TaggedEE           uint64            // entity-epochs resolved through an AQ (Table.Stats.FluidEpochs − misses)
	FluidEntities      uint64
	FluidDelivered     float64
	FluidDropped       float64
	ClusterWindows     uint64 // sim.SyncStats
	ClusterFlushedMsgs uint64
	ClusterBarrierNS   int64 // host time: never in the digest
	ClusterAdvanceNS   int64
}

// meanPending is the mean number of events the engine held at the slice
// boundaries: the depth the engine feeders price this workload's events at.
func (n opCounts) meanPending() float64 { return float64(n.PendingSum) / slices }

// digester folds counters into an FNV-64a digest.
type digester struct{ h hash.Hash64 }

func newDigester() digester { return digester{fnv.New64a()} }

func (d digester) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d digester) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d digester) str(s string) { d.h.Write([]byte(s)) }

func (d digester) sum() uint64 { return d.h.Sum64() }

// latencyHist is a fixed-bucket histogram of simulated packet latencies,
// filled from Host.RxHook. It is allocated once per process and reset per
// iteration, so it never shows up as per-iteration garbage or live heap
// growth. 64 ns buckets cover 0–4.19 ms; anything longer lands in the last
// bucket (RTO-scale outliers do not move a median).
type latencyHist struct {
	buckets [1 << 16]uint32
	n       uint64
}

const latencyBucketNS = 64

func (h *latencyHist) reset() { *h = latencyHist{} }

func (h *latencyHist) add(d sim.Time) {
	i := int(d / latencyBucketNS)
	if i < 0 {
		i = 0
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
	h.n++
}

// p50us returns the median in µs, interpolated inside its bucket so the
// value keeps sub-bucket digits.
func (h *latencyHist) p50us() float64 {
	if h.n == 0 {
		return 0
	}
	target := float64(h.n) / 2
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			frac := (target - cum) / float64(c)
			return (float64(i) + frac) * latencyBucketNS / 1e3
		}
		cum += float64(c)
	}
	return float64(len(h.buckets)) * latencyBucketNS / 1e3
}

var latHist latencyHist

// runSliced advances to horizon in `slices` RunUntil calls, timing each
// (run.slice spans on the traced run). At every boundary, untimed, it
// samples pending — how many events the engine holds, which is what a heap
// event's cost depends on — and at the half-way boundary it calls mid. It
// returns each slice's run time and the summed samples.
func runSliced(rec *recorder, horizon sim.Time, runUntil func(sim.Time), pending func() int, mid func()) (parts []time.Duration, pendingSum uint64) {
	parts = make([]time.Duration, 0, slices)
	for s := 1; s <= slices; s++ {
		id := rec.begin("run.slice")
		start := time.Now()
		runUntil(horizon * sim.Time(s) / slices)
		parts = append(parts, time.Since(start))
		rec.end(id)
		pendingSum += uint64(pending())
		if s == slices/2 && mid != nil {
			mid()
		}
	}
	return parts, pendingSum
}
