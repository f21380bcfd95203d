package control

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"aqueue/internal/core"
	"aqueue/internal/units"
)

// serveController starts a wire server answering the controller verbs
// against a fresh controller of the given capacity, with switch S1's
// ingress and egress tables, and an unknown_op fallback for every other
// op. It returns the controller, S1's ingress table and the listen
// address; the server stops when the test ends.
func serveController(t *testing.T, capacity units.BitRate) (*Controller, *core.Table, string) {
	t.Helper()
	ctrl := NewController(capacity)
	tables := map[Position]*core.Table{Ingress: core.NewTable(), Egress: core.NewTable()}
	lookup := func(sw string, pos Position) *core.Table {
		if sw != "S1" {
			return nil
		}
		return tables[pos]
	}
	ws := NewWireServer(func(req WireRequest, emit func(WireResponse) bool) {
		resp, handled := DispatchController(ctrl, lookup, req)
		if !handled {
			resp = Errf(CodeUnknownOp, "unknown op %q", req.Op)
		}
		emit(resp)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); ws.Serve(ln) }()
	t.Cleanup(func() { ws.Close(); <-served })
	return ctrl, tables[Ingress], ln.Addr().String()
}

// dialTestServer starts a controller server and returns a raw connection
// to it, closed when the test ends.
func dialTestServer(t *testing.T) net.Conn {
	t.Helper()
	_, _, addr := serveController(t, 10*units.Gbps)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func roundTrip(t *testing.T, conn net.Conn, line string) WireResponse {
	t.Helper()
	if _, err := conn.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatalf("no response to %q (err %v)", line, sc.Err())
	}
	var resp WireResponse
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		t.Fatalf("bad response %q: %v", sc.Text(), err)
	}
	return resp
}

func TestWireMalformedJSONKeepsConnectionAlive(t *testing.T) {
	conn := dialTestServer(t)
	resp := roundTrip(t, conn, "{this is not json")
	if resp.OK || resp.Error == "" {
		t.Fatalf("malformed line accepted: %+v", resp)
	}
	// The connection must survive for a valid follow-up.
	resp = roundTrip(t, conn, `{"op":"grant","mode":"absolute","bandwidth_bps":1e9,"switch":"S1"}`)
	if !resp.OK || resp.ID == 0 {
		t.Fatalf("valid grant after junk failed: %+v", resp)
	}
}

func TestWireUnknownFieldsIgnored(t *testing.T) {
	conn := dialTestServer(t)
	resp := roundTrip(t, conn,
		`{"op":"grant","mode":"weighted","weight":2,"switch":"S1","future_field":123}`)
	if !resp.OK {
		t.Fatalf("forward-compatible request rejected: %+v", resp)
	}
}

func TestWireRejections(t *testing.T) {
	conn := dialTestServer(t)
	cases := []string{
		`{"op":"grant","mode":"sideways","switch":"S1"}`,
		`{"op":"grant","mode":"absolute","bandwidth_bps":1e9,"cc":"quantum","switch":"S1"}`,
		`{"op":"grant","mode":"absolute","bandwidth_bps":1e9,"position":"middle","switch":"S1"}`,
		`{"op":"grant","mode":"absolute","bandwidth_bps":1e9,"switch":"S9"}`,
		`{"op":"grant","mode":"absolute","switch":"S1"}`, // zero bandwidth
		`{"op":"set_active","id":1}`,                     // missing active
		`{"op":"transmogrify"}`,
	}
	for _, c := range cases {
		resp := roundTrip(t, conn, c)
		if resp.OK || resp.Error == "" {
			t.Fatalf("request %q accepted: %+v", c, resp)
		}
	}
}

func TestWireEmptyLinesSkipped(t *testing.T) {
	conn := dialTestServer(t)
	if _, err := conn.Write([]byte("\n\n")); err != nil {
		t.Fatal(err)
	}
	resp := roundTrip(t, conn, `{"op":"list"}`)
	if !resp.OK {
		t.Fatalf("list after blank lines failed: %+v", resp)
	}
}

func TestWireConcurrentClients(t *testing.T) {
	ctrl, _, addr := serveController(t, 100*units.Gbps)

	const clients = 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			cli, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			for j := 0; j < 20; j++ {
				if _, err := cli.Do(WireRequest{Op: "grant", Mode: "absolute",
					Bandwidth: 1e8, Switch: "S1"}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ctrl.Grants()); got != clients*20 {
		t.Fatalf("granted %d, want %d", got, clients*20)
	}
}

// TestWireVersionNegotiation pins the one-protocol contract: "v" absent or
// 2 is the protocol, any other value is refused with unsupported_version,
// every response carries "v":2, and hello lists [2].
func TestWireVersionNegotiation(t *testing.T) {
	conn := dialTestServer(t)

	for _, line := range []string{`{"op":"hello"}`, `{"op":"hello","v":2}`} {
		resp := roundTrip(t, conn, line)
		if !resp.OK || resp.V != ProtoV2 {
			t.Fatalf("%s: %+v", line, resp)
		}
		var info struct {
			Versions []int `json:"versions"`
		}
		if err := json.Unmarshal(resp.Data, &info); err != nil || len(info.Versions) != 1 || info.Versions[0] != ProtoV2 {
			t.Fatalf("%s: data %s (err %v), want versions [2]", line, resp.Data, err)
		}
	}

	for _, line := range []string{`{"op":"list"}`, `{"op":"list","v":2}`} {
		if resp := roundTrip(t, conn, line); !resp.OK || resp.V != ProtoV2 {
			t.Fatalf("%s: %+v, want ok with v 2", line, resp)
		}
	}

	// Every other version is refused, with the one the server speaks.
	for _, v := range []int{1, 3, 99, -1} {
		resp := roundTrip(t, conn, fmt.Sprintf(`{"op":"list","v":%d}`, v))
		if resp.OK || resp.Code != CodeUnsupportedVersion || resp.V != ProtoV2 {
			t.Fatalf("v %d: %+v, want %s with v 2", v, resp, CodeUnsupportedVersion)
		}
	}

	// Errors carry codes and the version, whatever the request's "v".
	for _, v := range []string{``, `,"v":2`} {
		cases := []struct{ line, code string }{
			{`{"op":"transmogrify"` + v + `}`, CodeUnknownOp},
			{`{"op":"release","id":999` + v + `}`, CodeUnknownID},
			{`{"op":"set_active","id":999,"active":false` + v + `}`, CodeUnknownID},
		}
		for _, c := range cases {
			resp := roundTrip(t, conn, c.line)
			if resp.OK || resp.Code != c.code || resp.V != ProtoV2 {
				t.Fatalf("%s: %+v, want %s with v 2", c.line, resp, c.code)
			}
		}
	}
	if resp := roundTrip(t, conn, "{not json"); resp.Code != CodeMalformed || resp.V != ProtoV2 {
		t.Fatalf("malformed: %+v, want %s with v 2", resp, CodeMalformed)
	}
}

func TestWireErrorCodes(t *testing.T) {
	conn := dialTestServer(t)
	cases := []struct {
		line string
		code string
	}{
		{"{not json", CodeMalformed},
		{`{"op":"grant","mode":"sideways","switch":"S1","v":2}`, CodeBadRequest},
		{`{"op":"grant","mode":"absolute","bandwidth_bps":1e9,"switch":"S9","v":2}`, CodeUnknownTable},
		{`{"op":"grant","mode":"absolute","bandwidth_bps":99e9,"switch":"S1","v":2}`, CodeInsufficientBandwidth},
		{`{"op":"set_rate","id":777,"bandwidth_bps":1e9,"v":2}`, CodeUnknownID},
	}
	for _, c := range cases {
		resp := roundTrip(t, conn, c.line)
		if resp.OK || resp.Code != c.code {
			t.Errorf("%q: got code %q (%+v), want %q", c.line, resp.Code, resp, c.code)
		}
	}
}

func TestWireSetRateSetWeight(t *testing.T) {
	conn := dialTestServer(t)

	g1 := roundTrip(t, conn, `{"op":"grant","mode":"absolute","bandwidth_bps":4e9,"switch":"S1","v":2}`)
	g2 := roundTrip(t, conn, `{"op":"grant","mode":"weighted","weight":1,"switch":"S1","v":2}`)
	g3 := roundTrip(t, conn, `{"op":"grant","mode":"weighted","weight":1,"switch":"S1","v":2}`)
	if !g1.OK || !g2.OK || !g3.OK {
		t.Fatalf("grants failed: %+v %+v %+v", g1, g2, g3)
	}

	// Shrink the absolute guarantee; the weighted pair splits the freed
	// headroom — 8 Gbps spare over weights 1:1 — at the next rebalance.
	resp := roundTrip(t, conn, fmt.Sprintf(`{"op":"set_rate","id":%d,"bandwidth_bps":2e9,"v":2}`, g1.ID))
	if !resp.OK || resp.Rate != 2e9 {
		t.Fatalf("set_rate: %+v", resp)
	}
	resp = roundTrip(t, conn, fmt.Sprintf(`{"op":"set_weight","id":%d,"weight":3,"v":2}`, g2.ID))
	if !resp.OK || resp.Rate != 6e9 {
		t.Fatalf("set_weight: got rate %v, want 6e9 (3/4 of 8G spare): %+v", resp.Rate, resp)
	}

	// Mode mismatches are rejected with bad_request.
	resp = roundTrip(t, conn, fmt.Sprintf(`{"op":"set_rate","id":%d,"bandwidth_bps":1e9,"v":2}`, g2.ID))
	if resp.OK || resp.Code != CodeBadRequest {
		t.Fatalf("set_rate on weighted grant: %+v", resp)
	}
	// Growing the absolute grant past capacity is refused and leaves the
	// deployed rate unchanged.
	resp = roundTrip(t, conn, fmt.Sprintf(`{"op":"set_rate","id":%d,"bandwidth_bps":99e9,"v":2}`, g1.ID))
	if resp.OK || resp.Code != CodeInsufficientBandwidth {
		t.Fatalf("oversubscribing set_rate: %+v", resp)
	}
}

func TestWireOversizedLine(t *testing.T) {
	conn := dialTestServer(t)
	// A huge (but under the scanner cap) request with a long tenant name
	// still parses.
	long := strings.Repeat("x", 100_000)
	resp := roundTrip(t, conn,
		`{"op":"grant","mode":"absolute","bandwidth_bps":1e9,"switch":"S1","tenant":"`+long+`"}`)
	if !resp.OK {
		t.Fatalf("large request rejected: %+v", resp)
	}
}

// TestWireServerCloseBeforeServe: a Close that runs before Serve must not
// be lost. Serve on a closed server closes its listener and returns; it
// used to block forever, so a daemon signalled between installing its
// handler and serving never exited.
func TestWireServerCloseBeforeServe(t *testing.T) {
	ws := NewWireServer(func(WireRequest, func(WireResponse) bool) {})
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() { served <- ws.Serve(ln) }()
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("Serve on a closed server returned nil, want the accept error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still blocked 5 s after Close")
	}
	if conn, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after Serve on a closed server returned")
	}
}
