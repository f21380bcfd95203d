package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"time"

	"aqueue/internal/control"
	"aqueue/internal/packet"
	"aqueue/internal/service"
	"aqueue/internal/sim"
)

// daemon_session: one closed-loop client driving the fabric service over
// its wire protocol. An in-process service.Fabric (8-hosts-a-side
// dumbbell, two cooperative domains, 1 ms windows, 4096-event trace ring)
// starts paused behind control.NewWireServer on 127.0.0.1:0; one
// control.Dial client says hello, takes four grants, attaches four load
// drivers and walks the fabric through daemonWindows windows in
// alternating blocks — daemonBlock × (step 1, stats), then one advance of
// daemonBlock windows — reconfiguring at fixed window indices while
// paused. Traffic crosses the host's loopback interface, not a link.
const (
	daemonWindows = 300
	daemonBlock   = 25
	daemonWindow  = sim.Millisecond
	daemonFluidN  = 5000
)

func daemonConfig() service.Config {
	return service.Config{
		Topo:       "dumbbell",
		Hosts:      8,
		Domains:    2,
		Window:     daemonWindow,
		TraceLen:   4096,
		CC:         "cubic",
		FluidEpoch: sim.Millisecond,
	}
}

// daemonGrants are the four tenants, in grant order (so AQ IDs 1..4).
// Two weighted shares to reconfigure with set_weight, two absolute
// guarantees to reconfigure with set_rate.
var daemonGrants = []control.WireRequest{
	{Op: "grant", Tenant: "web", Mode: "weighted", Weight: 1, CC: "drop", Switch: "S1"},
	{Op: "grant", Tenant: "mining", Mode: "weighted", Weight: 1, CC: "ecn", Switch: "S1"},
	{Op: "grant", Tenant: "rpc", Mode: "absolute", Bandwidth: 2e9, CC: "drop", Switch: "S1"},
	{Op: "grant", Tenant: "bulk", Mode: "absolute", Bandwidth: 1e9, CC: "drop", Switch: "S1"},
}

// daemonAttaches are the four load drivers, one per tenant. The run's seed
// reaches the program only through the RPC tenant's arrival seed: its flows
// are all one size, so a different seed moves every arrival but not the
// amount of traffic. The two heavy-tailed tenants keep fixed seeds — one
// draw of their size distributions differs from the next by tens of percent
// in bytes, and iteration size must not depend on the seed. The fluid
// driver offers twice its tenant's guarantee at a fixed rate, so its AQ is
// the one entity of this workload that is backlogged against a grant for
// the whole run: share_fidelity_pct reads it.
func daemonAttaches(seed uint64) []control.WireRequest {
	return []control.WireRequest{
		{Op: "attach", Tenant: "web", ID: 1, Kind: "websearch", CC: "cubic", Load: 0.15, Seed: 0xaa01},
		{Op: "attach", Tenant: "mining", ID: 2, Kind: "datamining", CC: "dctcp", Load: 0.15, Seed: 0xaa02},
		{Op: "attach", Tenant: "rpc", ID: 3, Kind: "fixed", Size: 64_000, CC: "bbr", Load: 0.10, Seed: seed<<8 | 3},
		{Op: "attach", Tenant: "bulk", ID: 4, Kind: "fluid", CC: "fixed", Load: 0.20, Entities: daemonFluidN},
	}
}

// bulkRateBps is the bulk tenant's guarantee once the script's set_rate
// (window 50) has landed; it holds for the whole second half.
const bulkRateBps = 1.5e9

// daemonScript returns the requests to send while paused at window w,
// before stepping on. Every mutation sits on a boundary the client is
// parked at: inside a step block or on a block edge.
func daemonScript(w int, seed uint64) []control.WireRequest {
	att := daemonAttaches(seed)
	switch w {
	case 10:
		return []control.WireRequest{{Op: "set_weight", ID: 1, Weight: 2}}
	case 20:
		return []control.WireRequest{{Op: "set_weight", ID: 2, Weight: 3}}
	case 50:
		return []control.WireRequest{{Op: "set_rate", ID: 4, Bandwidth: bulkRateBps}, {Op: "fingerprint"}}
	case 60:
		return []control.WireRequest{{Op: "set_weight", ID: 1, Weight: 1}}
	case 70:
		return []control.WireRequest{{Op: "trace", Count: 100}}
	case 100:
		return []control.WireRequest{{Op: "set_rate", ID: 3, Bandwidth: 1.5e9}, {Op: "fingerprint"}}
	case 110:
		// Driver IDs count up from 1 in attach order: 1..4 at set-up,
		// then 5 and 6 for the two re-attaches.
		return []control.WireRequest{{Op: "detach", ID: 1}, att[0]}
	case 120:
		return []control.WireRequest{{Op: "set_weight", ID: 2, Weight: 1}}
	case 150:
		return []control.WireRequest{{Op: "stats"}, {Op: "fingerprint"}}
	case 160:
		return []control.WireRequest{{Op: "set_weight", ID: 1, Weight: 3}}
	case 170:
		return []control.WireRequest{{Op: "trace", Count: 100}}
	case 200:
		return []control.WireRequest{{Op: "fingerprint"}}
	case 210:
		return []control.WireRequest{{Op: "detach", ID: 2}, att[1]}
	case 220:
		return []control.WireRequest{{Op: "set_weight", ID: 2, Weight: 2}}
	case 250:
		return []control.WireRequest{{Op: "fingerprint"}}
	case 270:
		return []control.WireRequest{{Op: "trace", Count: 100}}
	case daemonWindows:
		return []control.WireRequest{{Op: "stats"}, {Op: "fingerprint"}}
	}
	return nil
}

// mutates reports whether a scripted request changes the fabric (and so
// must be replayed by the in-process reference run).
func mutates(op string) bool {
	switch op {
	case "grant", "set_weight", "set_rate", "attach", "detach":
		return true
	}
	return false
}

// applyInProcess performs one mutation directly on a fabric, the way the
// service's wire dispatcher does.
func applyInProcess(f *service.Fabric, req control.WireRequest) error {
	switch req.Op {
	case "attach":
		_, err := f.Attach(service.LoadSpec{
			Tenant: req.Tenant, AQ: packet.AQID(req.ID), Kind: req.Kind, Size: req.Size,
			Load: req.Load, Seed: req.Seed, CC: req.CC, Entities: req.Entities,
		})
		return err
	case "detach":
		if !f.Detach(req.ID) {
			return fmt.Errorf("detach %d: no such driver", req.ID)
		}
		return nil
	}
	resp, handled := control.DispatchController(f.Ctrl(), f.LookupTable, req)
	if !handled || !resp.OK {
		return fmt.Errorf("%s: %s", req.Op, resp.Error)
	}
	return nil
}

// daemonReplay runs the same session in-process: every mutation pinned to
// its window with Fabric.ScriptAt, then daemonWindows AdvanceWindow calls.
// Its fingerprint must equal the wire-driven run's.
func daemonReplay(seed uint64, rec *recorder) (string, error) {
	f, err := service.NewFabric(daemonConfig())
	if err != nil {
		return "", err
	}
	defer f.Close()
	var scriptErr error
	script := func(w int, reqs []control.WireRequest) {
		for _, req := range reqs {
			if !mutates(req.Op) {
				continue
			}
			req.V = control.ProtoV2
			f.ScriptAt(uint64(w), func(f *service.Fabric) {
				if err := applyInProcess(f, req); err != nil && scriptErr == nil {
					scriptErr = err
				}
			})
		}
	}
	script(0, daemonGrants)
	script(0, daemonAttaches(seed))
	for w := 1; w <= daemonWindows; w++ {
		script(w, daemonScript(w, seed))
	}
	for w := 0; w < daemonWindows; w++ {
		id := rec.begin("inproc.advance_window")
		f.AdvanceWindow()
		rec.end(id)
	}
	return f.Fingerprint(), scriptErr
}

func daemonIterate(seed uint64, rec *recorder, hp *heapProbe) iterOut {
	out := iterOut{rtts: make(map[string][]float64)}
	fail := func(format string, args ...any) {
		out.violations = append(out.violations, fmt.Sprintf(format, args...))
	}

	watch := startWatch()
	id := rec.begin("setup.topo")
	f, err := service.NewFabric(daemonConfig())
	if err != nil {
		fail("NewFabric: %v", err)
		return out
	}
	s := service.Start(f, service.RunConfig{StartPaused: true})
	ws := control.NewWireServer(s.Handler())
	s.SetOnQuit(func() { ws.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Quit()
		fail("listen: %v", err)
		return out
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		// The accept error after Close is the normal shutdown path.
		_ = ws.Serve(ln)
	}()
	cli, err := control.Dial(ln.Addr().String())
	rec.end(id)
	watch.lap()
	// stop tears the daemon down and waits for both of its goroutines.
	stop := func() {
		if cli != nil {
			cli.Close()
		}
		ws.Close()
		select {
		case <-s.Done():
		default:
			s.Quit()
		}
		<-served
	}
	if err != nil {
		stop()
		fail("dial: %v", err)
		return out
	}

	// do sends one request and times its round trip as the client sees it.
	do := func(req control.WireRequest) (control.WireResponse, bool) {
		req.V = control.ProtoV2
		sp := rec.begin("wire." + req.Op)
		start := time.Now()
		resp, err := cli.Do(req)
		rtt := time.Since(start)
		rec.end(sp)
		out.attempted++
		out.rtts[req.Op] = append(out.rtts[req.Op], float64(rtt.Nanoseconds())/1e3)
		if err != nil || !resp.OK {
			out.failed++
			fail("%s: %v %s", req.Op, err, resp.Error)
			return resp, false
		}
		return resp, true
	}

	id = rec.begin("setup.deploy")
	do(control.WireRequest{Op: "hello"})
	for i, g := range daemonGrants {
		if resp, ok := do(g); ok && resp.ID != uint32(i+1) {
			fail("grant %d returned AQ id %d", i+1, resp.ID)
		}
	}
	rec.end(id)
	watch.lap()
	id = rec.begin("setup.attach")
	for _, a := range daemonAttaches(seed) {
		do(a)
	}
	rec.end(id)
	watch.lap()
	out.setup = watch.parts
	hp.atBuilt()

	// bulk[k] is the bulk tenant's (offered, dropped) fluid bytes from the
	// stats replies at the half-way boundary and at the end.
	var bulk [][2]float64
	var last service.StatsReply
	readStats := func(resp control.WireResponse) {
		out.statsReplyBytes = len(resp.Data)
		if err := json.Unmarshal(resp.Data, &last); err != nil {
			fail("stats payload: %v", err)
		}
	}
	scripted := func(w int) {
		for _, req := range daemonScript(w, seed) {
			resp, ok := do(req)
			if !ok {
				continue
			}
			switch req.Op {
			case "stats":
				readStats(resp)
				for _, t := range last.Tenants {
					if t.Tenant == "bulk" {
						bulk = append(bulk, [2]float64{t.AQ.FluidBytes, t.AQ.FluidDropped})
					}
				}
			case "fingerprint":
				var fp struct {
					Window      uint64 `json:"window"`
					Fingerprint string `json:"fingerprint"`
				}
				if err := json.Unmarshal(resp.Data, &fp); err != nil || fp.Window != uint64(w) {
					fail("fingerprint at window %d: %v (window %d)", w, err, fp.Window)
				}
				out.fingerprint = fp.Fingerprint
			}
		}
	}

	// The run's parts are its blocks, then the closing requests.
	watch = startWatch()
	for b := 0; b*daemonBlock < daemonWindows; b++ {
		w0 := b * daemonBlock
		if b%2 == 1 {
			scripted(w0)
			do(control.WireRequest{Op: "advance", UntilNS: int64(sim.Time(w0+daemonBlock) * daemonWindow)})
			watch.lap()
			continue
		}
		for w := w0; w < w0+daemonBlock; w++ {
			scripted(w)
			do(control.WireRequest{Op: "step", Count: 1})
			if resp, ok := do(control.WireRequest{Op: "stats"}); ok {
				readStats(resp)
			}
		}
		watch.lap()
	}
	scripted(daemonWindows)
	do(control.WireRequest{Op: "quit"})
	watch.lap()
	out.run = watch.parts
	hp.atRan() // the service has quit; stop() below still holds it and its fabric

	id = rec.begin("collect")
	stop()
	out.work = daemonWindows
	if last.Window != daemonWindows {
		fail("final stats at window %d, want %d", last.Window, daemonWindows)
	}
	if len(bulk) == 2 {
		window := float64(sim.Time(daemonWindows/2) * daemonWindow)
		rate := ((bulk[1][0] - bulk[0][0]) - (bulk[1][1] - bulk[0][1])) / window
		granted := bulkRateBps / 8e9
		out.shareErr = 100 * math.Abs(rate-granted) / granted
	} else {
		fail("bulk tenant missing from the stats replies")
	}
	c := &out.counts
	c.ClusterWindows = last.Sync.Windows
	c.ClusterFlushedMsgs = last.Sync.FlushedMsgs
	c.ClusterBarrierNS = last.Sync.BarrierNS
	c.ClusterAdvanceNS = last.Sync.AdvanceNS
	for _, p := range last.Pipes {
		c.PktHops += p.TxPackets
	}
	for _, sw := range last.Switches {
		c.SwitchRx += sw.RxPackets
		c.SwitchAQDrops += sw.AQDrops
		c.SwitchAQBypassed += sw.AQBypassed
		c.Lookups += sw.Ingress.Lookups + sw.Egress.Lookups
		c.Misses += sw.Ingress.Misses + sw.Egress.Misses
		c.TaggedEE += sw.Ingress.FluidEpochs - sw.Ingress.FluidMisses
	}
	for _, t := range last.Tenants {
		c.AQArrived += t.AQ.Arrived
		c.AQDrops += t.AQ.Drops
		c.AQMarks += t.AQ.Marks
	}
	for _, d := range last.Drivers {
		c.NewSenders += uint64(d.Started)
		c.EntityEpochs += d.EntityEpochs
		c.FluidEntities += uint64(d.Entities)
		c.FluidDelivered += d.FluidDelivered
		c.FluidDropped += d.FluidDropped
	}
	c.EEByModel = map[string]uint64{"fixed": c.EntityEpochs}
	dg := newDigester()
	dg.str(out.fingerprint)
	dg.u64(c.PktHops, c.SwitchRx, c.Lookups, c.AQArrived, c.AQDrops, c.NewSenders, c.EntityEpochs, c.ClusterWindows)
	dg.f64(out.shareErr, c.FluidDelivered, c.FluidDropped)
	out.digest = dg.sum()
	rec.end(id)
	return out
}
