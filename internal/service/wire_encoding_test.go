package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"aqueue/internal/control"
	"aqueue/internal/sim"
)

// wireConn is a raw connection that reads the server's lines exactly as
// written, newline included.
type wireConn struct {
	conn net.Conn
	r    *bufio.Reader
}

func (c wireConn) send(t *testing.T, line string) {
	t.Helper()
	if _, err := c.conn.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
}

func (c wireConn) read(t *testing.T) []byte {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading a reply: %v", err)
	}
	return line
}

// encoderLine decodes a server line into a WireResponse and returns what
// json.NewEncoder writes for that response.
func encoderLine(t *testing.T, line []byte) (control.WireResponse, []byte) {
	t.Helper()
	var r control.WireResponse
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatalf("undecodable line %q: %v", line, err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// TestWireLinesMatchEncoder captures every line the server writes in a
// session that uses every verb and the error replies, and holds each to
// json.NewEncoder's output for the response it decodes to: the bytes the
// server wrote when it encoded whole responses. Every step, advance and
// watch payload must be json.Marshal of its window's snapshot, as the
// service published it; and every published boundary's bytes must still be
// json.Marshal of its snapshot once the session is over, so no window's
// encoding was reused or overwritten by a later one.
func TestWireLinesMatchEncoder(t *testing.T) {
	f, err := NewFabric(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := Start(f, RunConfig{StartPaused: true})
	published, _ := s.Subscribe() // closed by quit
	ws := control.NewWireServer(s.Handler())
	s.SetOnQuit(func() { ws.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); ws.Serve(ln) }()
	t.Cleanup(func() { ws.Close(); <-served }) // after the connections close
	dial := func() wireConn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return wireConn{conn: conn, r: bufio.NewReaderSize(conn, 4096)}
	}
	main, watcher := dial(), dial()

	// payloads maps a window to the snapshot payloads the wire carried
	// for it.
	payloads := map[uint64][]json.RawMessage{}
	check := func(op string, line []byte) control.WireResponse {
		t.Helper()
		r, want := encoderLine(t, line)
		if !bytes.Equal(line, want) {
			t.Fatalf("%s: server wrote\n  %q\njson.Encoder writes\n  %q", op, line, want)
		}
		if r.OK && (op == "step" || op == "advance" || op == "watch") {
			var snap Snapshot
			if err := json.Unmarshal(r.Data, &snap); err != nil {
				t.Fatalf("%s payload: %v", op, err)
			}
			payloads[snap.Window] = append(payloads[snap.Window], r.Data)
		}
		return r
	}

	window := int64(testConfig().Window)
	script := []struct {
		line, code string // code "" expects OK
	}{
		{`{"op":"hello"}`, ""},
		{`{"op":"grant","v":2,"tenant":"t1","mode":"weighted","weight":1,"switch":"S1"}`, ""},
		{`{"op":"grant","tenant":"t2","mode":"absolute","bandwidth_bps":2e9,"cc":"ecn","switch":"S1"}`, ""},
		{`{"op":"list"}`, ""},
		{`{"op":"set_weight","id":1,"weight":3}`, ""},
		{`{"op":"set_rate","id":2,"bandwidth_bps":1e9}`, ""},
		{`{"op":"set_active","id":2,"active":false}`, ""},
		{`{"op":"attach","tenant":"t1","id":1,"kind":"websearch","load":0.4}`, ""},
		{`{"op":"attach","tenant":"t2","id":2,"kind":"fixed","size":30000,"load":0.2}`, ""},
		{`{"op":"attach","kind":"fluid","cc":"fixed","load":0.2,"entities":8}`, ""},
		{`{"op":"step","count":3}`, ""},
		{`{"op":"stats"}`, ""},
		{`{"op":"trace","count":5}`, ""},
		{`{"op":"fingerprint"}`, ""},
		{`{"op":"advance","until_ns":` + strconv.FormatInt(7*window, 10) + `}`, ""},
		{`{"op":"set_active","id":2,"active":true}`, ""},
		{`{"op":"detach","id":1}`, ""},
		{`{"op":"step"}`, ""},
		{`{"op":"release","id":2}`, ""},
		{`{"op":"pause"}`, ""},
		{`{"op":"stats"}`, ""},
		{`{"op":"release","id":99}`, control.CodeUnknownID},
		{`{"op":"detach","id":99}`, control.CodeUnknownID},
		{`{"op":"transmogrify"}`, control.CodeUnknownOp},
		{`{broken`, control.CodeMalformed},
		{`{"op":"list","v":3}`, control.CodeUnsupportedVersion},
		{`{"op":"grant","mode":"weighted","weight":1,"switch":"S9"}`, control.CodeUnknownTable},
		{`{"op":"grant","mode":"absolute","bandwidth_bps":99e9,"switch":"S1"}`, control.CodeInsufficientBandwidth},
		{`{"op":"attach","kind":"nope","load":0.5}`, control.CodeBadRequest},
		{`{"op":"advance","until_ns":1}`, control.CodeBadRequest},
		{`{"op":"set_weight","id":1,"weight":0}`, control.CodeBadRequest},
	}
	for _, c := range script {
		var req control.WireRequest
		json.Unmarshal([]byte(c.line), &req) // the malformed line leaves Op empty
		main.send(t, c.line)
		if r := check(req.Op, main.read(t)); r.Code != c.code || r.OK != (c.code == "") {
			t.Fatalf("%s: %+v, want code %q", c.line, r, c.code)
		}
	}

	// watch streams from a second connection while the first steps: once
	// the server has subscribed, each step is one frame.
	frames := make(chan []byte, 3)
	go func() {
		for i := 0; i < cap(frames); i++ {
			watcher.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			line, _ := watcher.r.ReadBytes('\n') // a short line fails check
			frames <- line
		}
	}()
	watcher.send(t, `{"op":"watch","count":3}`)
	var watched []control.WireResponse
	for steps := 0; len(watched) < cap(frames); steps++ {
		if steps == 100 {
			t.Fatal("100 steps brought fewer than 3 watch frames")
		}
		main.send(t, `{"op":"step"}`)
		check("step", main.read(t))
		select {
		case line := <-frames:
			watched = append(watched, check("watch", line))
		case <-time.After(10 * time.Millisecond):
		}
	}
	for len(watched) < cap(frames) {
		watched = append(watched, check("watch", <-frames))
	}
	var prev Snapshot
	for i, r := range watched {
		var snap Snapshot
		json.Unmarshal(r.Data, &snap)
		if i > 0 && snap.Window != prev.Window+1 {
			t.Fatalf("watch frames at windows %d then %d, want consecutive", prev.Window, snap.Window)
		}
		prev = snap
	}

	main.send(t, `{"op":"quit"}`)
	check("quit", main.read(t))
	<-s.Done()

	seen := 0
	for b := range published {
		want, err := json.Marshal(b.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Enc, want) {
			t.Fatalf("window %d: published bytes differ from json.Marshal of its snapshot", b.Window)
		}
		for _, p := range payloads[b.Window] {
			if !bytes.Equal(p, want) {
				t.Fatalf("window %d: wire payload\n  %s\njson.Marshal of the snapshot\n  %s", b.Window, p, want)
			}
			seen++
		}
		delete(payloads, b.Window)
	}
	if len(payloads) > 0 || seen < 6 {
		t.Fatalf("%d wire payloads checked, windows %v never published", seen, payloads)
	}
}

// TestServiceWireOversizeTrace: a trace tail too long for one line is
// refused with too_large, naming the limit, and the connection reads on.
// The server used to write the line anyway; the client's scanner gave up
// on it ("token too long"), and the next request on the connection read
// the rest of that line as its reply.
func TestServiceWireOversizeTrace(t *testing.T) {
	cfg := testConfig()
	cfg.Window, cfg.TraceLen = sim.Millisecond, 20_000
	td := dialService(t, cfg, RunConfig{StartPaused: true})
	defer td.done()
	cli := td.cli
	for _, req := range []control.WireRequest{
		{Op: "grant", Tenant: "t1", Mode: "weighted", Weight: 1, Switch: "S1"},
		{Op: "attach", Tenant: "t1", ID: 1, Kind: "websearch", Load: 0.5},
		{Op: "step", Count: 50},
	} {
		if r, err := cli.Do(req); err != nil || !r.OK {
			t.Fatalf("%s: %+v err %v", req.Op, r, err)
		}
	}
	r, err := cli.Do(control.WireRequest{Op: "trace", Count: cfg.TraceLen})
	if err == nil || r.OK || r.Code != control.CodeTooLarge || !strings.Contains(r.Error, strconv.Itoa(control.MaxLine)) {
		t.Fatalf("trace of %d events: %+v err %v, want code %q naming %d", cfg.TraceLen, r, err, control.CodeTooLarge, control.MaxLine)
	}
	for _, req := range []control.WireRequest{{Op: "hello"}, {Op: "trace", Count: 100}, {Op: "stats"}} {
		if r, err := cli.Do(req); err != nil || !r.OK {
			t.Fatalf("%s after the refused trace: %+v err %v", req.Op, r, err)
		}
	}
}

// BenchmarkWireVerbs times loopback round trips through control.Client
// against a paused 2x2 dumbbell carrying one websearch tenant: one op is
// one request written, served, and its reply read and decoded. A step
// advances one 200 µs window, so its row includes AdvanceWindow; a stats
// reply is the full snapshot with series and meters.
func BenchmarkWireVerbs(b *testing.B) {
	for _, op := range []string{"step", "stats"} {
		b.Run(op, func(b *testing.B) {
			td := dialService(b, testConfig(), RunConfig{StartPaused: true})
			defer td.done()
			for _, req := range []control.WireRequest{
				{Op: "grant", Tenant: "t1", Mode: "weighted", Weight: 1, Switch: "S1"},
				{Op: "attach", Tenant: "t1", ID: 1, Kind: "websearch", Load: 0.4},
				{Op: "step", Count: 20},
			} {
				if r, err := td.cli.Do(req); err != nil || !r.OK {
					b.Fatalf("%s: %+v err %v", req.Op, r, err)
				}
			}
			req := control.WireRequest{Op: op, Count: 1}
			var bytes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := td.cli.Do(req)
				if err != nil || !r.OK {
					b.Fatalf("%s: %+v err %v", op, r, err)
				}
				bytes = len(r.Data)
			}
			b.ReportMetric(float64(bytes), "B/reply")
		})
	}
}
