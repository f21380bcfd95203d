package main

import (
	"encoding/json"
	"math"
	"net"
	"runtime"
	"time"

	"aqueue/internal/cc"
	"aqueue/internal/control"
	"aqueue/internal/core"
	"aqueue/internal/fluid"
	"aqueue/internal/packet"
	"aqueue/internal/queue"
	"aqueue/internal/service"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/topo"
	"aqueue/internal/trace"
	"aqueue/internal/transport"
	"aqueue/internal/units"
)

// A feeder is a loop in the benchmark that calls one layer's public API
// and nothing else it can avoid, timing only that. Feeder costs are what
// the layer budget multiplies op counts by; they are measured from
// outside, so they carry call overhead a profiler inside the program
// would not see, and a layer's inlined share of a caller is invisible to
// them. bench.unattributed_pct is the price of that.
const feederRepeats = 20

// feed runs fn(n) feederRepeats times (after one warm-up) and returns the
// fast (p5) cost per op in ns.
func feed(n int, fn func(n int)) float64 {
	fn(n)
	per := make([]float64, feederRepeats)
	for i := range per {
		start := time.Now()
		fn(n)
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return fast(per)
}

// feedSink keeps feeder results live.
var feedSink float64

// relSink counts and recycles packets: the far end of feeder pipes. Every
// sixteenth delivery it samples how many events the engine holds, so the
// feeder knows at what depth its own events were priced.
type relSink struct {
	eng        *sim.Engine
	pool       *packet.Pool
	n          uint64
	pendingSum uint64
}

func newRelSink(eng *sim.Engine) *relSink { return &relSink{eng: eng, pool: packet.PoolFor(eng)} }

func (s *relSink) Receive(p *packet.Packet) {
	if s.n%16 == 0 {
		s.pendingSum += uint64(s.eng.Pending())
	}
	s.n++
	s.pool.Release(p)
}

// meanPending is the mean of the sink's samples.
func (s *relSink) meanPending() float64 { return float64(s.pendingSum) / float64((s.n+15)/16) }

type nopHandler struct{}

func (nopHandler) Handle(*packet.Packet) {}

// feederCosts is every feeder's result, ns per op unless the name says µs.
type feederCosts struct {
	HeapNsPerEvent, WheelNsPerRearm                      float64 // at the workload's measured depth
	PoolNsPerGetPut                                      float64
	FifoNsPerPkt                                         float64
	PipeNsPerPkt, PipeEventsPerPkt, PipeHeapNs           float64 // PipeHeapNs: a heap event at the pipe feeder's own depth
	SwitchNsPerPkt, HostNsPerPkt                         float64
	UpdateNs, PassNs, DropNs, MarkNs, BurstNsPerPkt      float64
	FluidEpochNs                                         float64
	B2BNsPerPkt, NewSenderNs                             float64
	UDPNsPerPkt                                          float64
	OnAckNs                                              map[string]float64
	AddNNsPerEntity, HeapBPerEntity                      float64
	FixedNsPerEE, LossNsPerEE, ECNNsPerEE, QuiescentNsEE float64
	DispatchGrantNs, DispatchSetWeightNs, WireHelloUs    float64
	AdvanceWindowUs, SnapshotUs, AttachUs                float64
	MeterAddNs, RingNsPerEvent                           float64
}

// runFeeders runs every feeder. pending is the mean number of events the
// workload's engine held at its slice boundaries (0 when the benchmark
// cannot read it: daemon_session's engines are behind the wire); the
// engine feeders price the workload's events at that depth.
func runFeeders(seed uint64, pending float64) feederCosts {
	var c feederCosts
	eng := engineCosts{heap: make(map[int]float64), wheel: make(map[int]float64)}
	if pending > 0 {
		c.HeapNsPerEvent = eng.heapAt(pending)
		c.WheelNsPerRearm = eng.wheelAt(pending)
	}
	c.PoolNsPerGetPut = feedPool()
	c.FifoNsPerPkt = feedFIFO()
	var pipeDepth float64
	c.PipeNsPerPkt, c.PipeEventsPerPkt, pipeDepth = feedPipe()
	c.PipeHeapNs = eng.heapAt(pipeDepth)
	c.SwitchNsPerPkt = feedSwitch()
	c.HostNsPerPkt = feedHost()
	c.UpdateNs = feedUpdate()
	c.PassNs, c.DropNs, c.MarkNs = feedProcess()
	c.BurstNsPerPkt = feedBurst()
	c.FluidEpochNs = feedFluidEpoch()
	c.OnAckNs = make(map[string]float64)
	for _, alg := range []string{"cubic", "dctcp", "bbr", "swift"} {
		c.OnAckNs[alg] = feedOnAck(alg)
	}
	c.NewSenderNs = feedNewSender()
	c.UDPNsPerPkt = feedUDP(c, &eng)
	c.B2BNsPerPkt = feedB2B(c, &eng)
	c.AddNNsPerEntity, c.HeapBPerEntity = feedAddN()
	c.FixedNsPerEE = feedCohort("fixed", true)
	c.LossNsPerEE = feedCohort("cubic", true)
	c.ECNNsPerEE = feedCohort("dctcp", true)
	c.QuiescentNsEE = feedCohort("fixed", false)
	c.DispatchGrantNs, c.DispatchSetWeightNs = feedDispatch()
	c.WireHelloUs = feedWireHello()
	c.AdvanceWindowUs, c.SnapshotUs = feedService(seed)
	c.AttachUs = feedAttach()
	c.MeterAddNs = feedMeter()
	c.RingNsPerEvent = feedRing()
	return c
}

// engineCosts prices an engine event with a given number of events
// pending, measuring each depth once. The depth is always one the
// benchmark sampled with Engine.Pending — in a workload or inside another
// feeder — never a constant: on the recording host a heap event costs
// 15 ns with 1 or 2 pending, 66 ns with 17, 81 ns with 48 and 93 ns with
// 106. Pending counts both lanes, so for the heap it is an upper bound:
// the scenario's armed wheel timers are in it.
type engineCosts struct{ heap, wheel map[int]float64 }

func (e *engineCosts) heapAt(pending float64) float64  { return churnAt(e.heap, pending, heapChurn) }
func (e *engineCosts) wheelAt(pending float64) float64 { return churnAt(e.wheel, pending, wheelChurn) }

func churnAt(memo map[int]float64, pending float64, churn func(width int) float64) float64 {
	width := max(1, int(math.Round(pending)))
	if _, ok := memo[width]; !ok {
		memo[width] = churn(width)
	}
	return memo[width]
}

// heapChurn: width self-rescheduling detached events on the heap.
func heapChurn(width int) float64 {
	type slot struct{ interval sim.Time }
	return feed(200_000, func(n int) {
		eng := sim.NewEngine()
		fired := 0
		slots := make([]slot, width)
		var fn func(any)
		fn = func(x any) {
			fired++
			if fired+width <= n {
				eng.AfterDetached(x.(*slot).interval, fn, x)
			}
		}
		for i := range slots {
			slots[i].interval = sim.Time(i + 1)
			eng.AfterDetached(slots[i].interval, fn, &slots[i])
		}
		eng.Run()
	})
}

// wheelChurn: width timers re-arming themselves on the wheel.
func wheelChurn(width int) float64 {
	return feed(200_000, func(n int) {
		eng := sim.NewEngine()
		fired := 0
		for i := 0; i < width; i++ {
			interval := sim.Time(i + 1)
			var t *sim.Timer
			t = eng.NewTimer(func() {
				fired++
				if fired+width <= n {
					t.RearmAfter(interval)
				}
			})
			t.ArmAfter(interval)
		}
		eng.Run()
	})
}

func feedPool() float64 {
	pool := packet.PoolFor(sim.NewEngine())
	return feed(200_000, func(n int) {
		for i := 0; i < n; i++ {
			pool.Release(pool.NewData(1, 2, 1, int64(i), packet.DefaultMSS))
		}
	})
}

// feedFIFO: Push+Pop at a standing depth of 32.
func feedFIFO() float64 {
	q := queue.New(0, 0)
	pkts := make([]packet.Packet, 33)
	for i := range pkts[:32] {
		pkts[i].Size = packet.MaxDataBytes
		q.Push(0, &pkts[i])
	}
	spare := &pkts[32]
	spare.Size = packet.MaxDataBytes
	return feed(200_000, func(n int) {
		for i := 0; i < n; i++ {
			q.Push(sim.Time(i), spare)
			spare = q.Pop()
		}
	})
}

// pipeBatch is how many packets a feeder puts on a pipe back to back
// before letting it drain: long enough for burst draining to engage, short
// enough that the pipe's rings stay as small and cache-resident as they
// are inside a workload.
const pipeBatch = 32

// batches runs fn(pipeBatch) from inside the engine, n/pipeBatch times,
// each batch one simulated gap after the previous one drained. One
// eng.Run covers them all, so the engine's end-of-run pool spill is paid
// once, not per batch.
func batches(eng *sim.Engine, n int, gap sim.Time, fn func(k int)) {
	left := n
	var step func(any)
	step = func(any) {
		fn(pipeBatch)
		if left -= pipeBatch; left > 0 {
			eng.AfterDetached(gap, step, nil)
		}
	}
	eng.AfterDetached(0, step, nil)
	eng.Run()
}

// feederGap is longer than a batch takes to serialize and propagate at
// 10 Gbps, so every batch meets an idle pipe.
const feederGap = 40 * sim.Microsecond

// feedPipe: an idle 10 Gbps pipe draining back-to-back batches into a
// counting sink. It also reports the engine events the drain took per
// packet and how many were pending while it ran, so the budget can take
// the engine's share back out at the right price.
func feedPipe() (nsPerPkt, eventsPerPkt, pending float64) {
	var events, pkts uint64
	ns := feed(1<<15, func(n int) {
		eng := sim.NewEngine()
		sink := newRelSink(eng)
		pipe := topo.NewPipe(eng, 10*units.Gbps, 5*sim.Microsecond, 0, 0, sink)
		seq := int64(0)
		batches(eng, n, feederGap, func(k int) {
			for i := 0; i < k; i++ {
				pipe.Send(sink.pool.NewData(1, 2, 1, seq, packet.DefaultMSS))
				seq += packet.DefaultMSS
			}
		})
		events += eng.Stats().Processed
		pkts += sink.n
		pending = sink.meanPending()
	})
	return ns, float64(events) / float64(pkts), pending
}

// feedSwitch: Switch.Receive of untagged packets routed to one port, whose
// pipe drains into a counting sink. The cost includes that pipe.
func feedSwitch() float64 {
	return feed(1<<15, func(n int) {
		eng := sim.NewEngine()
		sink := newRelSink(eng)
		sw := topo.NewSwitch(eng, "F")
		sw.AddRoute(2, sw.AddPort(topo.NewPipe(eng, 10*units.Gbps, 5*sim.Microsecond, 0, 0, sink)))
		seq := int64(0)
		batches(eng, n, feederGap, func(k int) {
			for i := 0; i < k; i++ {
				sw.Receive(sink.pool.NewData(1, 2, 1, seq, packet.DefaultMSS))
				seq += packet.DefaultMSS
			}
		})
	})
}

// feedHost: Host.Receive dispatching to a no-op flow handler. The cost
// includes the packet's pool round trip (the host releases it).
func feedHost() float64 {
	eng := sim.NewEngine()
	pool := packet.PoolFor(eng)
	h := topo.NewHost(eng, 2)
	h.Register(1, nopHandler{})
	return feed(200_000, func(n int) {
		for i := 0; i < n; i++ {
			h.Receive(pool.NewData(1, 2, 1, int64(i), packet.DefaultMSS))
		}
	})
}

func feedUpdate() float64 {
	aq := core.New(core.Config{ID: 1, Rate: 10 * units.Gbps})
	now := sim.Time(0)
	return feed(500_000, func(n int) {
		var g float64
		for i := 0; i < n; i++ {
			now += 832
			g += aq.Update(now, packet.MaxDataBytes)
		}
		feedSink += g
	})
}

// feedProcess: Table.Process over 64 AQs, one loop per verdict path. Pass:
// arrivals exactly at the allocated rate, so the gap never grows. Drop:
// a 1 bps allocation behind a one-byte limit. Mark: arrivals at the rate
// of an ECN-type AQ whose threshold is one byte.
func feedProcess() (pass, drop, mark float64) {
	const aqs = 64
	run := func(cfg core.Config, ecn bool) float64 {
		t := core.NewTable()
		cfgs := make([]core.Config, aqs)
		for i := range cfgs {
			cfgs[i] = cfg
			cfgs[i].ID = packet.AQID(i + 1)
		}
		t.DeployBatch(cfgs)
		p := &packet.Packet{Size: packet.MaxDataBytes, EcnCapable: ecn}
		now := sim.Time(0)
		return feed(500_000, func(n int) {
			for i := 0; i < n; i++ {
				if i%aqs == 0 {
					now += 832 // one MTU at 10 Gbps, per AQ
				}
				p.CE, p.VirtualDelay = false, 0
				feedSink += float64(t.Process(now, packet.AQID(i%aqs+1), p))
			}
		})
	}
	pass = run(core.Config{Rate: 10 * units.Gbps}, false)
	drop = run(core.Config{Rate: 1, Limit: 1}, false)
	mark = run(core.Config{Rate: 10 * units.Gbps, CC: core.ECNType, ECNThreshold: 1}, true)
	return pass, drop, mark
}

// feedBurst: BurstCursor runs of 64 same-tag packets plus the Flush.
func feedBurst() float64 {
	t := core.NewTable()
	t.Deploy(core.Config{ID: 1, Rate: 10 * units.Gbps})
	p := &packet.Packet{Size: packet.MaxDataBytes}
	var cur core.BurstCursor
	now := sim.Time(0)
	return feed(512_000, func(n int) {
		for i := 0; i < n; i += 64 {
			cur.Bind(t)
			for k := 0; k < 64; k++ {
				now += 832
				p.VirtualDelay = 0
				feedSink += float64(cur.Process(now, 1, p))
			}
			cur.Flush()
		}
	})
}

func feedFluidEpoch() float64 {
	aq := core.New(core.Config{ID: 1, Rate: 1 * units.Gbps, Limit: 25000})
	now := sim.Time(0)
	const dt = 100 * sim.Microsecond
	return feed(500_000, func(n int) {
		for i := 0; i < n; i++ {
			now += dt
			feedSink += aq.OnFluidEpoch(now, 25000, dt).Accepted
		}
	})
}

// feedOnAck: a synthetic ACK train — 1 µs apart, 100 µs RTT, one ECN echo
// in eight.
func feedOnAck(name string) float64 {
	alg := cc.ByName(name)()
	now := sim.Time(0)
	return feed(500_000, func(n int) {
		for i := 0; i < n; i++ {
			now += sim.Microsecond
			alg.OnAck(cc.Ack{Now: now, RTT: 100 * sim.Microsecond, Delay: 10 * sim.Microsecond,
				ECE: i%8 == 0, Bytes: packet.DefaultMSS, MSS: packet.DefaultMSS})
		}
		feedSink += alg.Cwnd()
	})
}

// twoHosts wires two hosts back to back with the default link.
func twoHosts(eng *sim.Engine) (a, b *topo.Host) {
	spec := topo.DefaultSim()
	a, b = topo.NewHost(eng, 0), topo.NewHost(eng, 1)
	a.SetUplink(topo.NewPipe(eng, spec.Rate, spec.Delay, spec.QueueLimit, spec.ECNThreshold, b))
	b.SetUplink(topo.NewPipe(eng, spec.Rate, spec.Delay, spec.QueueLimit, spec.ECNThreshold, a))
	return a, b
}

func feedNewSender() float64 {
	a, b := twoHosts(sim.NewEngine())
	return feed(2000, func(n int) {
		for i := 0; i < n; i++ {
			s := transport.NewSender(a, b, 0, cc.NewCubic(), transport.Options{})
			s.Start(0)
			s.Stop()
		}
	})
}

// twoHostRun runs a started source over a two-host link for 40 ms in the
// workloads' ten slices and returns the wall time per packet sent, the
// engine events per packet, and the mean number of events pending at the
// slice boundaries.
func twoHostRun(start func(a, b *topo.Host) (stop func(), sent func() uint64)) (nsPerPkt, eventsPerPkt, pending float64) {
	var n, events, pendingSum uint64
	ns := feed(1, func(int) {
		eng := sim.NewEngine()
		stop, sent := start(twoHosts(eng))
		_, pendingSum = runSliced(nil, 40*sim.Millisecond, eng.RunUntil, eng.Pending, nil)
		stop()
		n, events = sent(), eng.Stats().Processed
	})
	return ns / float64(n), float64(events) / float64(n), float64(pendingSum) / slices
}

// feedUDP: one UDPSender ticking at line rate into a back-to-back host.
// Returned is the sender's own share: the tick's wall time less the
// engine events, the wheel re-arm, the pipe hop and the receiving host it
// necessarily drives. It is a small difference of large numbers and is
// reported as it comes out, negative included.
func feedUDP(c feederCosts, eng *engineCosts) float64 {
	raw, events, pending := twoHostRun(func(a, b *topo.Host) (func(), func() uint64) {
		u := transport.NewUDPSender(a, b, 10*units.Gbps, transport.Options{})
		u.Start(0)
		return u.Stop, func() uint64 { return u.SentPackets }
	})
	// One event per datagram is the tick itself, on the wheel lane.
	return raw - (events-1)*eng.heapAt(pending) - eng.wheelAt(pending) - pipeSelf(c) -
		c.PoolNsPerGetPut - c.FifoNsPerPkt - hostSelf(c)
}

// feedB2B: one CUBIC flow over a two-host link. Returned is the wall time
// per data segment less what the sim, topo and cc rows already claim for
// the events, the two pipe hops, the two host deliveries and the OnAck
// that each segment drives.
func feedB2B(c feederCosts, eng *engineCosts) float64 {
	raw, events, pending := twoHostRun(func(a, b *topo.Host) (func(), func() uint64) {
		s := transport.NewSender(a, b, 0, cc.NewCubic(), transport.Options{})
		s.Start(0)
		return s.Stop, func() uint64 { return s.SentPackets }
	})
	return raw - events*eng.heapAt(pending) - 2*pipeSelf(c) - 2*c.PoolNsPerGetPut -
		2*hostSelf(c) - 2*c.FifoNsPerPkt - c.OnAckNs["cubic"]
}

const cohortEntities = 100_000

func feedAddN() (nsPerEntity, heapBPerEntity float64) {
	var before, after runtime.MemStats
	var lane *fluid.Lane
	ns := feed(cohortEntities, func(n int) {
		eng := sim.NewEngine()
		lane = fluid.NewLane(eng, core.NewTable(), 100*sim.Microsecond)
		lane.AddN(fluid.EntityConfig{AQ: 1, Rate: units.Mbps, Pipe: -1}, n)
	})
	lane = nil
	runtime.GC()
	runtime.ReadMemStats(&before)
	lane = fluid.NewLane(sim.NewEngine(), core.NewTable(), 100*sim.Microsecond)
	lane.AddN(fluid.EntityConfig{AQ: 1, Rate: units.Mbps, Pipe: -1}, cohortEntities)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(lane)
	return ns, (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / cohortEntities
}

// feedCohort: one cohort of cohortEntities entities of one model stepped
// for ten epochs. Tagged cohorts share AQs sixteen to one, offered twice
// their grant; the untagged fixed cohort is the quiescent case the lane
// skips after its priming epoch.
func feedCohort(ccName string, tagged bool) float64 {
	const epochs = 10
	const epoch = 100 * sim.Microsecond
	return feed(cohortEntities*epochs, func(int) {
		eng := sim.NewEngine()
		table := core.NewTable()
		lane := fluid.NewLane(eng, table, epoch)
		if !tagged {
			lane.AddN(fluid.EntityConfig{CC: ccName, Rate: units.Mbps, Pipe: -1}, cohortEntities)
		} else {
			cfgs := make([]core.Config, cohortEntities/16)
			ccType := core.DropType
			if ccName == "dctcp" {
				ccType = core.ECNType
			}
			for i := range cfgs {
				cfgs[i] = core.Config{ID: packet.AQID(i + 1), Rate: 8 * units.Mbps, Limit: 2000, CC: ccType, ECNThreshold: 500}
			}
			table.DeployBatch(cfgs)
			for i := range cfgs {
				lane.AddN(fluid.EntityConfig{AQ: packet.AQID(i + 1), CC: ccName, Rate: units.Mbps, Pipe: -1}, 16)
			}
		}
		lane.SetDeadline(epochs * epoch)
		lane.Start(0)
		eng.RunUntil(epochs * epoch)
	})
}

// feedDispatch: control.DispatchController called directly. Grants are
// timed in batches of 64 into an emptied table; set_weight on a table of
// 64 weighted grants.
func feedDispatch() (grantNs, setWeightNs float64) {
	lookup := func(t *core.Table) func(string, control.Position) *core.Table {
		return func(string, control.Position) *core.Table { return t }
	}
	grant := control.WireRequest{V: control.ProtoV2, Op: "grant", Tenant: "t", Mode: "weighted", Weight: 1, Switch: "S1"}
	grantNs = feed(64, func(n int) {
		ctrl, t := control.NewController(10*units.Gbps), core.NewTable()
		for i := 0; i < n; i++ {
			control.DispatchController(ctrl, lookup(t), grant)
		}
	})
	ctrl, t := control.NewController(10*units.Gbps), core.NewTable()
	for i := 0; i < 64; i++ {
		control.DispatchController(ctrl, lookup(t), grant)
	}
	setWeightNs = feed(2000, func(n int) {
		for i := 0; i < n; i++ {
			control.DispatchController(ctrl, lookup(t), control.WireRequest{
				V: control.ProtoV2, Op: "set_weight", ID: uint32(i%64 + 1), Weight: float64(i%3 + 1)})
		}
	})
	return grantNs, setWeightNs
}

// feedWireHello: the loopback floor — hello round trips against a wire
// server whose handler does nothing but the controller dispatch.
func feedWireHello() float64 {
	ctrl := control.NewController(10 * units.Gbps)
	ws := control.NewWireServer(func(req control.WireRequest, emit func(control.WireResponse) bool) {
		resp, _ := control.DispatchController(ctrl, nil, req)
		emit(resp)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = ws.Serve(ln)
	}()
	defer func() {
		ws.Close()
		<-served
	}()
	cli, err := control.Dial(ln.Addr().String())
	if err != nil {
		return 0
	}
	defer cli.Close()
	ns := feed(500, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cli.Do(control.WireRequest{V: control.ProtoV2, Op: "hello"}); err != nil {
				return
			}
		}
	})
	return ns / 1e3
}

// feedService: the daemon_session script driven in-process, then full
// snapshots of the fabric it leaves behind, marshalled as the stats verb
// does.
func feedService(seed uint64) (advanceWindowUs, snapshotUs float64) {
	// Nine replays (2 s): with three, one noisy minute on the recording
	// host put the service row at 141 % of the run.
	per := make([]float64, 9)
	for i := range per {
		start := time.Now()
		if _, err := daemonReplay(seed, nil); err != nil {
			return 0, 0
		}
		per[i] = float64(time.Since(start).Nanoseconds()) / 1e3 / daemonWindows
	}
	advanceWindowUs = fast(per)

	f, err := service.NewFabric(daemonConfig())
	if err != nil {
		return advanceWindowUs, 0
	}
	defer f.Close()
	for _, reqs := range [][]control.WireRequest{daemonGrants, daemonAttaches(seed)} {
		for _, req := range reqs {
			req.V = control.ProtoV2
			if err := applyInProcess(f, req); err != nil {
				return advanceWindowUs, 0
			}
		}
	}
	for w := 0; w < 50; w++ {
		f.AdvanceWindow()
	}
	ns := feed(200, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := json.Marshal(service.StatsReply{Snapshot: f.Snapshot(true), Sync: f.SyncStats()})
			feedSink += float64(len(b))
		}
	})
	return advanceWindowUs, ns / 1e3
}

func feedAttach() float64 {
	ns := feed(50, func(n int) {
		f, err := service.NewFabric(daemonConfig())
		if err != nil {
			return
		}
		defer f.Close()
		for i := 0; i < n; i++ {
			if _, err := f.Attach(service.LoadSpec{Kind: "fixed", Size: 64_000, Load: 0.001, CC: "cubic"}); err != nil {
				return
			}
		}
	})
	return ns / 1e3
}

func feedMeter() float64 {
	m := stats.NewMeter(sim.Millisecond)
	now := sim.Time(0)
	return feed(500_000, func(n int) {
		for i := 0; i < n; i++ {
			now += 100
			m.Add(now, packet.MaxDataBytes)
		}
	})
}

func feedRing() float64 {
	r := trace.NewRing(4096)
	return feed(500_000, func(n int) {
		for i := 0; i < n; i++ {
			r.Record(trace.Event{At: sim.Time(i), Kind: trace.Recv, Flow: 1, Src: 1, Dst: 2, Seq: int64(i), Size: 1040, Where: "host2"})
		}
	})
}
