package control

import (
	"encoding/json"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// serveHandler serves h on a loopback listener and returns a client
// connected to it; both stop when the test ends.
func serveHandler(t *testing.T, h Handler) *Client {
	t.Helper()
	ws := NewWireServer(h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); ws.Serve(ln) }()
	cli, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); ws.Close(); <-served })
	return cli
}

// TestWireOversizeReplyRefused: a reply whose line would exceed MaxLine is
// never written. The server answers too_large, naming the limit, and the
// connection reads on. A reply of exactly MaxLine bytes, its newline
// included, still goes out and is read whole. Written, the longer line
// ended the client's read with "token too long", and the next request on
// the connection read the rest of that line as its reply.
func TestWireOversizeReplyRefused(t *testing.T) {
	// A "blob" request is answered with an object payload of Size bytes.
	cli := serveHandler(t, func(req WireRequest, emit func(WireResponse) bool) {
		if req.Op != "blob" {
			resp, _ := DispatchController(nil, nil, req)
			emit(resp)
			return
		}
		emit(WireResponse{OK: true, Data: json.RawMessage(`{"s":"` + strings.Repeat("x", int(req.Size)-len(`{"s":""}`)) + `"}`)})
	})
	env, err := json.Marshal(WireResponse{V: ProtoV2, OK: true})
	if err != nil {
		t.Fatal(err)
	}
	fit := MaxLine - (len(env) - len("}") + len(`,"data":`) + len("}\n"))

	resp, err := cli.Do(WireRequest{Op: "blob", Size: int64(fit)})
	if err != nil || !resp.OK || len(resp.Data) != fit {
		t.Fatalf("reply of exactly MaxLine bytes: ok %v, %d payload bytes of %d, err %v", resp.OK, len(resp.Data), fit, err)
	}
	resp, err = cli.Do(WireRequest{Op: "blob", Size: int64(fit + 1)})
	if err == nil || resp.OK || resp.Code != CodeTooLarge || !strings.Contains(resp.Error, strconv.Itoa(MaxLine)) {
		t.Fatalf("reply one byte over MaxLine: %+v err %v, want code %q naming %d", resp, err, CodeTooLarge, MaxLine)
	}
	if resp, err := cli.Do(WireRequest{Op: "hello"}); err != nil || !resp.OK || string(resp.Data) != string(helloData) {
		t.Fatalf("hello after the refused reply: %+v err %v", resp, err)
	}
}

// recvSeeds are response lines: as the server writes them, and in the
// shapes Recv's sliced decode must hand to json.Unmarshal — data first,
// keys after data (one whose escaped quotes end the payload at the last
// brace for a scan that ignores escapes), a "data" key nested in the
// payload or spelled in another case, a non-composite payload, an error
// that quotes `,"data":`.
var recvSeeds = []string{
	`{"v":2,"ok":true,"data":{"versions":[2]}}`,
	`{"v":2,"ok":true,"id":1,"rate_bps":10000000000}`,
	`{"v":2,"ok":true,"ids":[1,2]}`,
	`{"v":2,"ok":true}`,
	`{"v":2,"ok":false,"error":"no grant with id 9","code":"unknown_id"}`,
	`{"v":2,"ok":false,"error":"bad ,\"data\":{\"x\":1} here","code":"bad_request"}`,
	`{"v":2,"ok":false,"error":"x","code":"bad_request","data":{"a":1}}`,
	`{"v":2,"ok":true,"id":1,"data":{"id":1,"kind":"websearch","load":0.5,"aq":1,"active":true,"started":0,"completed":0,"acked_bytes":0,"mean_fct_ns":0}}`,
	`{"v":2,"ok":true,"data":{"events":[{"at_ns":1200,"kind":"enqueue","flow":3,"src":0,"dst":2,"seq":1460,"size":1500,"where":"S1"}]}}`,
	`{"v":2,"ok":true,"data":{"window":1,"now_ns":200000,"tenants":[{"id":1,"tenant":"t1","mode":"weighted","rate_bps":10000000000,"weight":1,"active":true,"aq":{"arrived":0,"arrived_bytes":0,"drops":0,"marks":0}}],"pipes":[{"name":"S1->S2","tx_packets":0,"tx_bytes":0,"backlog_bytes":0,"gbps":0}],"switches":[{"name":"S1","rx_packets":0,"aq_drops":0,"route_miss":0,"aq_bypassed":0,"ingress":{"lookups":0,"misses":0},"egress":{"lookups":0,"misses":0}}],"drivers":[]}}`,
	`{"data":{"window":3},"v":2,"ok":true}`,
	`{"v":2,"ok":true,"data":{"a":"}{\\\"]"},"ok":false}`,
	`{"v":2,"ok":true,"data":{"s":"\""},"t":{"\"}":1}}`,
	`{"v":2,"ok":true,"data":{"x":1,"data":[2]}}`,
	`{"v":2,"ok":true,"x":{"y":1,"data":[2]}}`,
	`{"v":2,"DATA":{"a":1},"ok":true,"data":{"b":2}}`,
	`{"v":2,"ok":true,"data":{"b":2},"data":[3]}`,
	`{"v":2,"ok":true,"data":null}`,
	`{"v":2,"ok":true,"data":"s"}`,
	`{"v":2,"ok":true,"data":[1,{"b":[]}]}`,
	`{"v":2,"ok":true,"data":{"a":1} }`,
	`{"v":2,"ok":true ,"data":{"a":1}}`,
	`{"v":2,"ok":true,"data":{"a":1}}garbage`,
	`{"v":2,"ok":"yes","data":{"a":1}}`,
	`[{"v":2,"ok":true,"data":{"a":1}}]`,
	`{"v":2,"ok":true,"data":{"a":1}`,
	`,"data":{}}`,
	"",
}

// FuzzClientRecv reads one line through Client.Recv over net.Pipe.
// Properties: no panic; and wherever json.Unmarshal decodes the line (as
// the client's scanner yields it) into a WireResponse, Recv returns a
// deep-equal response, with an error exactly when that response is a
// failure that carries a message.
func FuzzClientRecv(f *testing.F) {
	for _, s := range recvSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		line, _, _ = strings.Cut(line, "\n")
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		go b.Write([]byte(line + "\n"))
		got, err := NewClient(a).Recv()

		var want WireResponse
		if json.Unmarshal([]byte(strings.TrimSuffix(line, "\r")), &want) != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: Recv gave %+v (data %q), json.Unmarshal %+v (data %q)", line, got, got.Data, want, want.Data)
		}
		if failed := !want.OK && want.Error != ""; (err != nil) != failed {
			t.Fatalf("%q: Recv error %v for a response whose failure is %v", line, err, failed)
		}
	})
}
