package service

import (
	"encoding/json"
	"math"
	"net"
	"sync"
	"testing"

	"aqueue/internal/control"
	"aqueue/internal/packet"
)

// testDaemon is one wire-served service instance plus a first client.
type testDaemon struct {
	cli  *control.Client
	s    *Service
	addr string
	done func()
}

// dialService starts a service daemon on a loopback listener and returns
// a connected client plus the daemon handles.
func dialService(t testing.TB, cfg Config, run RunConfig) testDaemon {
	t.Helper()
	f, err := NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := Start(f, run)
	ws := control.NewWireServer(s.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); ws.Serve(ln) }()
	s.SetOnQuit(func() { ws.Close() })
	cli, err := control.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return testDaemon{cli: cli, s: s, addr: ln.Addr().String(), done: func() {
		cli.Close()
		ws.Close()
		select {
		case <-s.Done():
		default:
			s.Quit()
		}
		<-serveDone
	}}
}

// TestServiceWireSession drives the full live-session flow the CI smoke
// scripts: hello, grant, attach, step, stats, reconfigure, trace,
// fingerprint, detach, release, quit.
func TestServiceWireSession(t *testing.T) {
	td := dialService(t, testConfig(), RunConfig{StartPaused: true})
	defer td.done()
	cli, s := td.cli, td.s

	hello, err := cli.Do(control.WireRequest{Op: "hello", V: 2})
	if err != nil || hello.V != control.ProtoV2 {
		t.Fatalf("hello: %+v err %v", hello, err)
	}

	grant, err := cli.Do(control.WireRequest{Op: "grant", V: 2, Tenant: "t1",
		Mode: "weighted", Weight: 1, Switch: "S1"})
	if err != nil || grant.ID == 0 {
		t.Fatalf("grant: %+v err %v", grant, err)
	}

	attach, err := cli.Do(control.WireRequest{Op: "attach", V: 2, Tenant: "t1",
		ID: grant.ID, Kind: "fixed", Size: 30_000, Load: 0.5})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	driverID := attach.ID

	step, err := cli.Do(control.WireRequest{Op: "step", V: 2, Count: 10})
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	var after Snapshot
	if err := json.Unmarshal(step.Data, &after); err != nil {
		t.Fatalf("step payload: %v", err)
	}
	if after.Window != 10 {
		t.Fatalf("stepped to window %d, want 10", after.Window)
	}

	stats, err := cli.Do(control.WireRequest{Op: "stats", V: 2})
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(stats.Data, &snap); err != nil {
		t.Fatalf("stats payload: %v", err)
	}
	if len(snap.Tenants) != 1 || snap.Tenants[0].Tenant != "t1" {
		t.Fatalf("tenants: %+v", snap.Tenants)
	}
	if len(snap.Drivers) != 1 || snap.Drivers[0].Started == 0 {
		t.Fatalf("drivers: %+v", snap.Drivers)
	}
	foundSeries := false
	for _, p := range snap.Pipes {
		if len(p.Series) > 0 && p.Meter != nil {
			foundSeries = true
		}
	}
	if !foundSeries {
		t.Fatalf("full snapshot lacks meter series: %+v", snap.Pipes)
	}

	rec, err := cli.Do(control.WireRequest{Op: "set_weight", V: 2, ID: grant.ID, Weight: 4})
	if err != nil || rec.Rate == 0 {
		t.Fatalf("set_weight: %+v err %v", rec, err)
	}

	tr, err := cli.Do(control.WireRequest{Op: "trace", V: 2, Count: 20})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	var tail struct {
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(tr.Data, &tail); err != nil {
		t.Fatalf("trace payload: %v", err)
	}
	if len(tail.Events) == 0 || len(tail.Events) > 20 {
		t.Fatalf("trace tail has %d events", len(tail.Events))
	}

	fp1, err := cli.Do(control.WireRequest{Op: "fingerprint", V: 2})
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	var fp struct {
		Window      uint64 `json:"window"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(fp1.Data, &fp); err != nil || fp.Fingerprint == "" {
		t.Fatalf("fingerprint payload %s: %v", fp1.Data, err)
	}

	if _, err := cli.Do(control.WireRequest{Op: "detach", V: 2, ID: driverID}); err != nil {
		t.Fatalf("detach: %v", err)
	}
	if _, err := cli.Do(control.WireRequest{Op: "release", V: 2, ID: grant.ID}); err != nil {
		t.Fatalf("release: %v", err)
	}

	quit, err := cli.Do(control.WireRequest{Op: "quit", V: 2})
	if err != nil || !quit.OK {
		t.Fatalf("quit: %+v err %v", quit, err)
	}
	<-s.Done()
}

func TestServiceWireErrors(t *testing.T) {
	td := dialService(t, testConfig(), RunConfig{})
	defer td.done()
	cli := td.cli

	cases := []struct {
		req  control.WireRequest
		code string
	}{
		{control.WireRequest{Op: "transmogrify", V: 2}, control.CodeUnknownOp},
		{control.WireRequest{Op: "step", V: 2}, control.CodeNotPaused},
		{control.WireRequest{Op: "detach", V: 2, ID: 99}, control.CodeUnknownID},
		{control.WireRequest{Op: "attach", V: 2, Kind: "websearch"}, control.CodeBadRequest},
		{control.WireRequest{Op: "attach", V: 2, Kind: "nope", Load: 0.5}, control.CodeBadRequest},
		{control.WireRequest{Op: "attach", V: 2, Kind: "fluid", Load: 0.5, CC: "cubik"}, control.CodeBadRequest},
		{control.WireRequest{Op: "attach", V: 2, Kind: "fluid", Load: 0.5, Entities: MaxFluidEntities + 1}, control.CodeBadRequest},
		{control.WireRequest{Op: "attach", V: 2, Kind: "websearch", Load: 1e-14}, control.CodeBadRequest},
		{control.WireRequest{Op: "attach", V: 2, Kind: "websearch", Load: 1e-300}, control.CodeBadRequest},
		{control.WireRequest{Op: "attach", V: 2, ID: 42, Kind: "websearch", Load: 0.5}, control.CodeBadRequest},
		{control.WireRequest{Op: "release", V: 2, ID: 42}, control.CodeUnknownID},
		{control.WireRequest{Op: "grant", V: 2, Mode: "weighted", Weight: 1, Switch: "S9"}, control.CodeUnknownTable},
	}
	for _, c := range cases {
		resp, _ := cli.Do(c.req)
		if resp.OK || resp.Code != c.code {
			t.Errorf("%s: got %+v, want code %q", c.req.Op, resp, c.code)
		}
	}

	// advance must reject a target that is not ahead of the clock.
	resp, _ := cli.Do(control.WireRequest{Op: "advance", V: 2, UntilNS: 1})
	if resp.OK || resp.Code != control.CodeBadRequest {
		t.Fatalf("advance into past: %+v", resp)
	}

	// A weight whose share overflows float64 is refused where it enters.
	// Admitted, it put rate_bps +Inf into the reply, which the server could
	// not encode, and into the next window's fingerprinted snapshot, which
	// panicked. The grant keeps its rate and the fabric keeps answering.
	if r, err := cli.Do(control.WireRequest{Op: "pause", V: 2}); err != nil || !r.OK {
		t.Fatalf("pause: %+v err %v", r, err)
	}
	grant, err := cli.Do(control.WireRequest{Op: "grant", V: 2, Mode: "weighted", Weight: 1, Switch: "S1"})
	if err != nil || !grant.OK {
		t.Fatalf("grant: %+v err %v", grant, err)
	}
	for _, op := range []string{"set_weight", "grant"} {
		r, err := cli.Do(control.WireRequest{Op: op, V: 2, ID: grant.ID, Mode: "weighted", Weight: 1e308, Switch: "S1"})
		if r.OK || r.Code != control.CodeBadRequest {
			t.Fatalf("%s weight 1e308: %+v err %v, want code %q", op, r, err, control.CodeBadRequest)
		}
	}
	td.s.Do(func(f *Fabric) control.WireResponse {
		if ids, rate := f.Ctrl().Grants(), f.Ctrl().Rate(packet.AQID(grant.ID)); len(ids) != 1 || float64(rate) != grant.Rate {
			t.Errorf("after the refusals: grants %v, rate %v; want the one grant at %v", ids, rate, grant.Rate)
		}
		return control.WireResponse{OK: true}
	})
	// The attach loads refused above (1e-14, 1e-300) started a flow per
	// nanosecond when admitted; a tiny load whose mean inter-arrival fits
	// in int64 still attaches.
	if r, err := cli.Do(control.WireRequest{Op: "attach", V: 2, Kind: "websearch", Load: 1e-9}); err != nil || !r.OK {
		t.Fatalf("attach load 1e-9: %+v err %v", r, err)
	}
	for _, req := range []control.WireRequest{{Op: "step", V: 2, Count: 2}, {Op: "stats", V: 2}, {Op: "fingerprint", V: 2}} {
		if r, err := cli.Do(req); err != nil || !r.OK {
			t.Fatalf("%s after the refusals: %+v err %v", req.Op, r, err)
		}
	}

	// Malformed JSON gets a malformed code and the connection survives.
	raw, _, done2 := rawConn(t)
	defer done2()
	if _, err := raw.Write([]byte("{broken\n")); err != nil {
		t.Fatal(err)
	}
	rcli := control.NewClient(raw)
	bad, _ := rcli.Recv()
	if bad.OK || bad.Code != control.CodeMalformed {
		t.Fatalf("malformed: %+v", bad)
	}
	good, err := rcli.Do(control.WireRequest{Op: "list", V: 2})
	if err != nil || !good.OK {
		t.Fatalf("connection died after malformed line: %+v err %v", good, err)
	}
}

// TestServiceWireAttachOverflowLoad: a load whose offered rate overflows
// float64 (or is not a number at all) must be refused with a coded error
// where it enters. Answered OK, the per-entity rate was +Inf, the lane's
// first epoch stored Inf - Inf = NaN in its own and the AQ's counters, and
// the next window's snapshot no longer marshalled — one request killed the
// daemon. After the refusals the fabric still steps and answers stats, and
// an ordinary fluid attach still works.
func TestServiceWireAttachOverflowLoad(t *testing.T) {
	td := dialService(t, testConfig(), RunConfig{StartPaused: true})
	defer td.done()
	cli := td.cli

	for _, kind := range []string{"fluid", "websearch"} {
		resp, err := cli.Do(control.WireRequest{Op: "attach", V: 2, Kind: kind, Load: 1e308, Entities: 4})
		if err == nil || resp.OK || resp.Code != control.CodeBadRequest {
			t.Fatalf("attach kind %q load 1e308: %+v err %v, want code %q", kind, resp, err, control.CodeBadRequest)
		}
	}
	// NaN and +Inf cannot be written in JSON; in-process ScriptAt callers
	// reach Attach with them all the same.
	for _, load := range []float64{math.NaN(), math.Inf(1), -1, 0} {
		td.s.Do(func(f *Fabric) control.WireResponse {
			if d, err := f.Attach(LoadSpec{Kind: "fluid", Load: load, Entities: 4}); err == nil {
				t.Errorf("Attach accepted load %v as driver %d", load, d.ID)
			}
			return control.WireResponse{OK: true}
		})
	}

	if resp, err := cli.Do(control.WireRequest{Op: "attach", V: 2, Kind: "fluid", CC: "fixed", Load: 0.2, Entities: 4}); err != nil || !resp.OK {
		t.Fatalf("ordinary fluid attach after the refusals: %+v err %v", resp, err)
	}
	step, err := cli.Do(control.WireRequest{Op: "step", V: 2, Count: 3})
	if err != nil || !step.OK {
		t.Fatalf("step after refused attach: %+v err %v", step, err)
	}
	stats, err := cli.Do(control.WireRequest{Op: "stats", V: 2})
	if err != nil || !stats.OK {
		t.Fatalf("stats after refused attach: %+v err %v", stats, err)
	}
	var reply StatsReply
	if err := json.Unmarshal(stats.Data, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Window != 3 || len(reply.Drivers) != 1 || !(reply.Drivers[0].FluidDelivered > 0) {
		t.Fatalf("after the refusals: window %d, drivers %+v; want window 3 and the one accepted driver delivering", reply.Window, reply.Drivers)
	}
}

// rawConn starts a free-running service and returns a raw TCP connection.
func rawConn(t *testing.T) (net.Conn, *Service, func()) {
	t.Helper()
	f, err := NewFabric(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := Start(f, RunConfig{})
	ws := control.NewWireServer(s.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return conn, s, func() { conn.Close(); ws.Close(); s.Quit() }
}

// TestServiceWireWatchStream checks the multi-response streaming verb:
// one watch request yields Count boundary snapshots with advancing
// windows.
func TestServiceWireWatchStream(t *testing.T) {
	td := dialService(t, testConfig(), RunConfig{})
	defer td.done()
	cli := td.cli

	resp, err := cli.Do(control.WireRequest{Op: "watch", V: 2, Count: 3})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	var prev Snapshot
	if err := json.Unmarshal(resp.Data, &prev); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		resp, err = cli.Recv()
		if err != nil {
			t.Fatalf("watch frame %d: %v", i, err)
		}
		var snap Snapshot
		if err := json.Unmarshal(resp.Data, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Window <= prev.Window {
			t.Fatalf("watch windows not advancing: %d then %d", prev.Window, snap.Window)
		}
		prev = snap
	}
	// The connection is usable for ordinary requests after the stream.
	if _, err := cli.Do(control.WireRequest{Op: "list", V: 2}); err != nil {
		t.Fatalf("list after watch: %v", err)
	}
}

// TestServiceWireConcurrentMutators hammers one tenant's grant from many
// clients while the fabric free-runs: every mutation must serialize
// through the mailbox without tripping the race detector, and the grant
// must stay consistent.
func TestServiceWireConcurrentMutators(t *testing.T) {
	td := dialService(t, testConfig(), RunConfig{})
	defer td.done()
	cli := td.cli

	grant, err := cli.Do(control.WireRequest{Op: "grant", V: 2, Tenant: "shared",
		Mode: "weighted", Weight: 1, Switch: "S1"})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c2, err := control.Dial(td.addr)
			if err != nil {
				errs <- err
				return
			}
			defer c2.Close()
			for j := 0; j < 10; j++ {
				var err error
				if i%2 == 0 {
					_, err = c2.Do(control.WireRequest{Op: "set_weight", V: 2,
						ID: grant.ID, Weight: float64(1 + j%3)})
				} else {
					active := j%2 == 0
					_, err = c2.Do(control.WireRequest{Op: "set_active", V: 2,
						ID: grant.ID, Active: &active})
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	list, err := cli.Do(control.WireRequest{Op: "list", V: 2})
	if err != nil || len(list.IDs) != 1 || list.IDs[0] != grant.ID {
		t.Fatalf("grant table corrupted: %+v err %v", list, err)
	}
}

// TestWireZeroRateRequestsMidRun pins what a zero or negative rate sent
// over the wire to a live fabric does today: nothing. A paused fabric with
// an absolute and a weighted grant, each carrying load, steps a few
// windows; then set_rate with bandwidth_bps 0 and -1e9 on the absolute
// grant and set_weight with weight 0 on the weighted one each answer
// bad_request. Both grants keep their rates, their AQs' Rate() agrees, and
// the next window fingerprints exactly like a run that never sent the
// requests. The test states the behaviour; it does not endorse it.
func TestWireZeroRateRequestsMidRun(t *testing.T) {
	type outcome struct {
		rates, aqRates [2]float64
		fingerprint    string
	}
	session := func(refuse bool) outcome {
		td := dialService(t, testConfig(), RunConfig{StartPaused: true})
		defer td.done()
		do := func(req control.WireRequest) control.WireResponse {
			t.Helper()
			req.V = 2
			r, err := td.cli.Do(req)
			if err != nil || !r.OK {
				t.Fatalf("%s: %+v err %v", req.Op, r, err)
			}
			return r
		}
		abs := do(control.WireRequest{Op: "grant", Tenant: "abs", Mode: "absolute", Bandwidth: 2e9, Switch: "S1"})
		wtd := do(control.WireRequest{Op: "grant", Tenant: "wtd", Mode: "weighted", Weight: 1, Switch: "S1"})
		for _, g := range []control.WireResponse{abs, wtd} {
			do(control.WireRequest{Op: "attach", ID: g.ID, Kind: "fixed", Size: 30_000, Load: 0.4})
		}
		do(control.WireRequest{Op: "step", Count: 5})
		if refuse {
			for _, req := range []control.WireRequest{
				{Op: "set_rate", ID: abs.ID, Bandwidth: 0},
				{Op: "set_rate", ID: abs.ID, Bandwidth: -1e9},
				{Op: "set_weight", ID: wtd.ID, Weight: 0},
			} {
				req.V = 2
				r, err := td.cli.Do(req)
				if r.OK || r.Code != control.CodeBadRequest {
					t.Fatalf("%s bandwidth %g weight %g: %+v err %v, want code %q", req.Op, req.Bandwidth, req.Weight, r, err, control.CodeBadRequest)
				}
			}
		}
		var o outcome
		td.s.Do(func(f *Fabric) control.WireResponse {
			tbl := f.LookupTable("S1", control.Ingress)
			for i, g := range []control.WireResponse{abs, wtd} {
				id := packet.AQID(g.ID)
				o.rates[i], o.aqRates[i] = float64(f.Ctrl().Rate(id)), float64(tbl.Lookup(id).Rate())
			}
			return control.WireResponse{OK: true}
		})
		do(control.WireRequest{Op: "step", Count: 1})
		o.fingerprint = string(do(control.WireRequest{Op: "fingerprint"}).Data)
		return o
	}
	quiet, refused := session(false), session(true)
	if refused != quiet {
		t.Fatalf("after the refused requests: %+v; a run that never sent them: %+v", refused, quiet)
	}
	if quiet.rates != quiet.aqRates || quiet.rates[0] != 2e9 || quiet.rates[1] <= 0 {
		t.Fatalf("grant rates %v, AQ rates %v; want 2e9 and a positive share, equal", quiet.rates, quiet.aqRates)
	}
}
