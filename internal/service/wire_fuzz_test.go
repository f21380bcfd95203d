package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"aqueue/internal/control"
)

// Bounds FuzzWireRequest puts on what a request may cost. A long step, a
// heavy load or a large fluid population is a legitimate request, not a
// fault; the bounds keep one input to a few windows of a light fabric.
const (
	fuzzMaxCount    = 4    // step/trace/watch count
	fuzzMaxWindows  = 4    // advance: until_ns at most this many windows ahead
	fuzzMaxLoad     = 0.01 // attach: an admitted load above it is lowered to it
	fuzzMaxEntities = 64   // attach: an admitted fluid population above it is lowered to it
)

// wireFuzzSeeds is the committed corpus: one line per verb, the inputs
// earlier fixes refused where they enter, the versions the server does
// not speak, a malformed line, an unknown op, and one whole session.
var wireFuzzSeeds = []string{
	`{"op":"hello"}`,
	`{"op":"grant","v":2,"tenant":"t1","mode":"weighted","weight":1,"switch":"S1"}`,
	`{"op":"grant","mode":"absolute","bandwidth_bps":2e9,"cc":"ecn","position":"egress","switch":"S2"}`,
	`{"op":"release","id":1}`,
	`{"op":"set_active","id":1,"active":false}`,
	`{"op":"set_rate","id":1,"bandwidth_bps":1e9}`,
	`{"op":"set_weight","id":1,"weight":3}`,
	`{"op":"list"}`,
	`{"op":"attach","tenant":"t1","id":1,"kind":"websearch","load":0.4}`,
	`{"op":"attach","kind":"fluid","load":0.5,"entities":16,"cc":"cubic"}`,
	`{"op":"detach","id":1}`,
	`{"op":"stats"}`,
	`{"op":"watch","count":2}`,
	`{"op":"trace","count":3}`,
	`{"op":"fingerprint"}`,
	`{"op":"pause"}`,
	`{"op":"resume"}`,
	`{"op":"step","count":2}`,
	`{"op":"advance","until_ns":600000}`,
	`{"op":"quit"}`,
	`{"op":"grant","mode":"weighted","weight":1e308,"switch":"S1"}`,
	"{\"op\":\"grant\",\"mode\":\"weighted\",\"weight\":1,\"switch\":\"S1\"}\n{\"op\":\"set_weight\",\"id\":1,\"weight\":1e308}",
	`{"op":"attach","kind":"websearch","load":1e-300}`,
	fmt.Sprintf(`{"op":"attach","kind":"fluid","load":0.5,"entities":%d}`, MaxFluidEntities+1),
	`{"op":"list","v":1}`,
	`{"op":"list","v":99}`,
	`{"op":"list","v":-1}`,
	`{this is not json`,
	"{\"op\":\"list\"}\r\n\r\n\r\r\n\n{\"op\":\"stats\"}\r",
	`{"op":"transmogrify"}`,
	strings.Join([]string{
		`{"op":"hello","v":2}`,
		`{"op":"grant","tenant":"t1","mode":"weighted","weight":1,"switch":"S1"}`,
		`{"op":"attach","tenant":"t1","id":1,"kind":"fixed","size":30000,"load":0.5}`,
		`{"op":"step","count":3}`,
		`{"op":"set_weight","id":1,"weight":4}`,
		`{"op":"resume"}`,
		`{"op":"watch","count":2}`,
		`{"op":"pause"}`,
		`{"op":"advance","until_ns":99999999999}`,
		`{"op":"detach","id":1}`,
		`{"op":"release","id":1}`,
		`{"op":"release","id":1}`,
	}, "\n"),
}

// FuzzWireRequest sends newline-separated request lines to a fresh paused
// fabric through the daemon's wire front end
// (control.NewWireServer(s.Handler()) over loopback TCP). A line the
// decoder refuses goes out as it is, through the server's own decode path;
// a decoded one is bounded (see the constants above) and re-encoded, and
// quit is skipped, as is a watch while the fabric is paused (it would wait
// for windows no one steps). Properties: no panic — one in the server's
// connection goroutine ends the test binary; every response fits in
// control.MaxLine, decodes, carries "v":2, and has a code unless it is OK;
// and afterwards pause, stats, fingerprint and step 1 still answer OK.
func FuzzWireRequest(f *testing.F) {
	for _, seed := range wireFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script string) {
		fab, err := NewFabric(Config{Hosts: 2, Window: testConfig().Window, TraceLen: 256})
		if err != nil {
			t.Fatal(err)
		}
		s := Start(fab, RunConfig{StartPaused: true})
		ws := control.NewWireServer(s.Handler())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.Quit()
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func() { defer close(served); ws.Serve(ln) }()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { conn.Close(); ws.Close(); s.Quit(); <-served }()
		sc := bufio.NewScanner(conn)
		sc.Buffer(make([]byte, 0, 4096), control.MaxLine)

		// send writes one line and reads its n responses.
		send := func(line []byte, n int) []control.WireResponse {
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Write(append(line, '\n')); err != nil {
				t.Fatalf("%q: write: %v", line, err)
			}
			out := make([]control.WireResponse, n)
			for i := range out {
				if !sc.Scan() {
					t.Fatalf("%q: response %d of %d never came (%v)", line, i+1, n, sc.Err())
				}
				if err := json.Unmarshal(sc.Bytes(), &out[i]); err != nil {
					t.Fatalf("%q: undecodable response %q: %v", line, sc.Bytes(), err)
				}
				if r := out[i]; r.V != control.ProtoV2 || (!r.OK && r.Code == "") {
					t.Fatalf("%q: response %+v lacks \"v\":2 or an error code", line, r)
				}
			}
			return out
		}

		window := int64(fab.Config().Window)
		running := false // the fabric free-runs (after an answered resume)
		for _, raw := range strings.Split(script, "\n") {
			// Read a line as the server's scanner does: one trailing CR is
			// dropped, and an empty line gets no response. The scanner ends
			// a connection at a control.MaxLine line by design; stay well
			// under it even after re-encoding.
			text := strings.TrimSuffix(raw, "\r")
			if len(text) == 0 || len(text) > 1<<16 {
				continue
			}
			var req control.WireRequest
			if json.Unmarshal([]byte(text), &req) != nil {
				send([]byte(raw), 1)
				continue
			}
			if req.Op == "quit" || (req.Op == "watch" && !running) {
				continue
			}
			req.Count = min(req.Count, fuzzMaxCount)
			req.UntilNS = min(req.UntilNS, s.Latest().NowNS+fuzzMaxWindows*window)
			if offered := req.Load * float64(fab.Capacity()); req.Load > fuzzMaxLoad && offered <= math.MaxFloat64 {
				req.Load = fuzzMaxLoad
			}
			if req.Entities > fuzzMaxEntities && req.Entities <= MaxFluidEntities {
				req.Entities = fuzzMaxEntities
			}
			line, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			n := 1
			if req.Op == "watch" && (req.V == 0 || req.V == control.ProtoV2) {
				n = max(req.Count, 1)
			}
			if resp := send(line, n); resp[0].OK {
				switch req.Op {
				case "resume":
					running = true
				case "pause", "advance":
					running = false
				}
			}
		}

		for _, op := range []string{"pause", "stats", "fingerprint", "step"} {
			line, _ := json.Marshal(control.WireRequest{Op: op, Count: 1})
			if resp := send(line, 1)[0]; !resp.OK {
				t.Fatalf("%s after the script: %+v", op, resp)
			}
		}
	})
}
