package control

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/units"
)

// This file implements the controller's wire protocol: newline-delimited
// JSON over TCP. Tenants (cmd/aqctl, or the hypervisor agent of §4.1) send
// requests; cmd/aqsimd answers them against a live fabric (internal/service
// layers its verbs around DispatchController). There is one protocol
// version (see codes.go); the full schema is documented in DESIGN.md.

// MaxLine is the longest line, its newline included, that either end of
// the wire reads. A longer request ends its connection; a longer reply is
// never written — the server answers CodeTooLarge in its place.
const MaxLine = 1 << 20

// WireRequest is one client message.
type WireRequest struct {
	// V is the protocol version the client speaks: absent (0) or ProtoV2.
	V         int     `json:"v,omitempty"`
	Op        string  `json:"op"`
	Tenant    string  `json:"tenant,omitempty"`
	Mode      string  `json:"mode,omitempty"` // absolute | weighted
	Bandwidth float64 `json:"bandwidth_bps,omitempty"`
	Weight    float64 `json:"weight,omitempty"`
	CC        string  `json:"cc,omitempty"` // drop | ecn | delay
	Position  string  `json:"position,omitempty"`
	Switch    string  `json:"switch,omitempty"`
	ID        uint32  `json:"id,omitempty"`
	Active    *bool   `json:"active,omitempty"`

	// Fields of the service verbs (internal/service).
	Kind     string  `json:"kind,omitempty"`     // attach: flow-size distribution (websearch|datamining|fixed) or "fluid"
	Entities int     `json:"entities,omitempty"` // attach: fluid entity count (kind "fluid")
	Load     float64 `json:"load,omitempty"`     // attach: offered load as a fraction of the bottleneck rate
	Size     int64   `json:"size,omitempty"`     // attach: flow size in bytes for kind "fixed"
	Seed     uint64  `json:"seed,omitempty"`     // attach: workload seed (0 picks one deterministically)
	Count    int     `json:"count,omitempty"`    // watch/trace/step: how many snapshots/events/windows
	UntilNS  int64   `json:"until_ns,omitempty"` // advance: absolute sim-time target in nanoseconds
}

// WireResponse is the controller's answer.
type WireResponse struct {
	// V is the protocol version; WireServer sets ProtoV2 on every response.
	V     int    `json:"v,omitempty"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code is the machine-readable error class (codes.go), set on every
	// error; scripts branch on it instead of parsing Error.
	Code string   `json:"code,omitempty"`
	ID   uint32   `json:"id,omitempty"`
	Rate float64  `json:"rate_bps,omitempty"`
	IDs  []uint32 `json:"ids,omitempty"`
	// Data carries a structured payload — a service.Snapshot, a trace
	// tail, version info — whose shape is op-specific (see DESIGN.md).
	// It is the last key of a response line, and WireServer writes it as
	// it is: a handler sets it to json.Marshal output or another compact,
	// HTML-escaped encoding, never to bytes it has not encoded.
	Data json.RawMessage `json:"data,omitempty"`
}

// Handler processes one decoded request and emits one or more responses.
// emit returns false once the connection is gone; a streaming handler
// (watch) should stop emitting then. Handlers run on the connection's
// goroutine, so a streaming handler blocks further requests on that
// connection only.
type Handler func(req WireRequest, emit func(WireResponse) bool)

// WireServer runs the newline-delimited-JSON loop for any Handler: it
// owns the listener, decodes requests, refuses other protocol versions,
// and normalizes responses (version stamp, error-code fallback). The
// fabric service's wire front end is built on it.
type WireServer struct {
	h      Handler
	mu     sync.Mutex
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup
}

// NewWireServer wraps a handler.
func NewWireServer(h Handler) *WireServer { return &WireServer{h: h} }

// Serve accepts connections on ln until the listener closes. It blocks;
// run it in a goroutine and call Close to stop. On a server already
// closed, Serve closes ln and returns at once.
func (s *WireServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	closed := s.closed
	s.mu.Unlock()
	if closed {
		ln.Close()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.wg.Wait()
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops the listener; in-flight connections finish their current
// request. A Close before Serve is remembered: that Serve returns at once.
func (s *WireServer) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		return ln.Close()
	}
	return nil
}

func (s *WireServer) handle(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), MaxLine)
	// head holds each response's envelope; see encodeLine. A payload is
	// not kept past its line, so a connection holds no reply's bytes.
	var head bytes.Buffer
	enc := json.NewEncoder(&head)
	alive := true
	// emit stamps every response with the protocol version and gives an
	// error without a class the bad_request code, so clients can always
	// branch on Code. A response whose line would exceed MaxLine goes out
	// as a too_large error instead, so the client can read on.
	emit := func(resp WireResponse) bool {
		if !alive {
			return false
		}
		resp.V = ProtoV2
		if resp.Error != "" && resp.Code == "" {
			resp.Code = CodeBadRequest
		}
		line, err := encodeLine(&head, enc, resp)
		if err != nil {
			alive = false
			return false
		}
		if len(line) > MaxLine {
			tooLarge := Errf(CodeTooLarge, "reply of %d bytes exceeds the %d-byte line limit", len(line), MaxLine)
			tooLarge.V = ProtoV2
			line, _ = encodeLine(&head, enc, tooLarge) // strings and a version always encode
		}
		if _, err := conn.Write(line); err != nil {
			alive = false
		}
		return alive
	}
	for alive && sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req WireRequest
		switch err := json.Unmarshal(line, &req); {
		case err != nil:
			emit(Errf(CodeMalformed, "malformed request: %v", err))
		case req.V != 0 && req.V != ProtoV2:
			emit(Errf(CodeUnsupportedVersion, "protocol v%d not supported (this server speaks v%d)", req.V, ProtoV2))
		default:
			s.h(req, emit)
		}
	}
}

// encodeLine returns resp's line as json.Encoder writes it, newline
// included, without scanning its payload again: the envelope is encoded
// into head without Data, and Data — the last key — is appended to it as
// the handler encoded it, then the closing brace. A line without Data is
// head's own bytes, valid until the next call.
func encodeLine(head *bytes.Buffer, enc *json.Encoder, resp WireResponse) ([]byte, error) {
	data := resp.Data
	resp.Data = nil
	head.Reset()
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	env := head.Bytes()
	if len(data) == 0 {
		return env, nil
	}
	env = env[:len(env)-len("}\n")]
	line := make([]byte, 0, len(env)+len(dataKey)+len(data)+len("}\n"))
	line = append(append(append(line, env...), dataKey...), data...)
	return append(line, "}\n"...), nil
}

// helloData is the "hello" payload: every protocol version the server
// accepts.
var helloData = json.RawMessage(`{"versions":[2]}`)

// DispatchController executes one controller verb — grant, release,
// set_active, list and the reconfiguration verbs — against ctrl, resolving
// pipeline tables through lookup. It reports handled=false for ops outside
// that set, so a larger server (internal/service) can layer its own verbs
// around the same controller dispatch instead of re-implementing it.
func DispatchController(ctrl *Controller, lookup func(sw string, pos Position) *core.Table, req WireRequest) (WireResponse, bool) {
	switch req.Op {
	case "hello":
		return WireResponse{OK: true, Data: helloData}, true
	case "grant":
		r, err := parseRequest(req)
		if err != nil {
			return ErrToResponse(err), true
		}
		tbl := lookup(req.Switch, r.Position)
		if tbl == nil {
			return Errf(CodeUnknownTable, "unknown switch/position %q/%s", req.Switch, r.Position), true
		}
		g, err := ctrl.Grant(r, tbl)
		if err != nil {
			return ErrToResponse(err), true
		}
		return WireResponse{OK: true, ID: uint32(g.ID), Rate: float64(g.Rate)}, true
	case "release":
		if !ctrl.Release(packet.AQID(req.ID)) {
			return Errf(CodeUnknownID, "no grant with id %d", req.ID), true
		}
		return WireResponse{OK: true}, true
	case "set_active":
		if req.Active == nil {
			return Errf(CodeBadRequest, "set_active needs \"active\""), true
		}
		if !ctrl.SetActive(packet.AQID(req.ID), *req.Active) {
			return Errf(CodeUnknownID, "no grant with id %d", req.ID), true
		}
		return WireResponse{OK: true, ID: req.ID, Rate: float64(ctrl.Rate(packet.AQID(req.ID)))}, true
	case "set_rate":
		// Reconfigure an absolute guarantee in place.
		rate, err := ctrl.SetGuarantee(packet.AQID(req.ID), units.BitRate(req.Bandwidth), 0)
		if err != nil {
			return ErrToResponse(err), true
		}
		return WireResponse{OK: true, ID: req.ID, Rate: float64(rate)}, true
	case "set_weight":
		// Reconfigure a weighted share in place.
		rate, err := ctrl.SetGuarantee(packet.AQID(req.ID), 0, req.Weight)
		if err != nil {
			return ErrToResponse(err), true
		}
		return WireResponse{OK: true, ID: req.ID, Rate: float64(rate)}, true
	case "list":
		ids := ctrl.Grants()
		out := make([]uint32, len(ids))
		for i, id := range ids {
			out[i] = uint32(id)
		}
		return WireResponse{OK: true, IDs: out}, true
	}
	return WireResponse{}, false
}

// parseRequest converts the wire form into a Request.
func parseRequest(w WireRequest) (Request, error) {
	r := Request{
		Tenant:    w.Tenant,
		Bandwidth: units.BitRate(w.Bandwidth),
		Weight:    w.Weight,
	}
	switch strings.ToLower(w.Mode) {
	case "absolute", "":
		r.Mode = Absolute
	case "weighted":
		r.Mode = Weighted
	default:
		return r, fmt.Errorf("%w: unknown mode %q", ErrBadRequest, w.Mode)
	}
	switch strings.ToLower(w.CC) {
	case "drop", "":
		r.CC = core.DropType
	case "ecn":
		r.CC = core.ECNType
	case "delay":
		r.CC = core.DelayType
	default:
		return r, fmt.Errorf("%w: unknown cc %q", ErrBadRequest, w.CC)
	}
	switch strings.ToLower(w.Position) {
	case "ingress", "":
		r.Position = Ingress
	case "egress":
		r.Position = Egress
	default:
		return r, fmt.Errorf("%w: unknown position %q", ErrBadRequest, w.Position)
	}
	return r, nil
}

// Client talks the wire protocol.
type Client struct {
	conn net.Conn
	enc  *json.Encoder
	sc   *bufio.Scanner
	env  []byte // Recv's envelope buffer
}

// Dial connects to a controller daemon.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an existing connection (useful with net.Pipe in tests).
func NewClient(conn net.Conn) *Client {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), MaxLine)
	return &Client{conn: conn, enc: json.NewEncoder(conn), sc: sc}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do performs one round trip.
func (c *Client) Do(req WireRequest) (WireResponse, error) {
	if err := c.enc.Encode(req); err != nil {
		return WireResponse{}, err
	}
	return c.Recv()
}

// Recv reads one more response line — the tail of a streaming verb like
// "watch", whose server emits Count responses for one request.
func (c *Client) Recv() (WireResponse, error) {
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return WireResponse{}, err
		}
		return WireResponse{}, fmt.Errorf("control: connection closed")
	}
	resp, err := c.decode(c.sc.Bytes())
	if err != nil {
		return WireResponse{}, err
	}
	if !resp.OK && resp.Error != "" {
		return resp, fmt.Errorf("control: %s", resp.Error)
	}
	return resp, nil
}

// dataKey opens the "data" member, the last key of a server line. No JSON
// string holds these bytes — a quote inside a string is escaped — so their
// first occurrence on a line is a key.
var dataKey = []byte(`,"data":`)

// decode returns what json.Unmarshal of line into a WireResponse returns,
// reading the payload once. A line shaped as WireServer writes it — an
// envelope, `,"data":`, one object or array, the closing brace — has only
// its envelope decoded; the payload's extent is found by tracking strings
// and nesting, and its bytes are copied out as Data unvalidated (as the
// last key, they are what json.Unmarshal keeps even if the envelope holds
// another "data"). Every other line is decoded in full.
func (c *Client) decode(line []byte) (WireResponse, error) {
	var resp WireResponse
	if i := bytes.Index(line, dataKey); i > 0 {
		tail := line[i+len(dataKey):]
		if n := compositeLen(tail); n > 0 && n == len(tail)-1 && tail[n] == '}' {
			c.env = append(append(c.env[:0], line[:i]...), '}')
			if json.Unmarshal(c.env, &resp) == nil {
				resp.Data = bytes.Clone(tail[:n])
				return resp, nil
			}
			resp = WireResponse{}
		}
	}
	err := json.Unmarshal(line, &resp)
	return resp, err
}

// compositeLen returns the length of the object or array b starts with, or
// 0 if b starts with neither or it never closes. It follows strings and
// nesting only, so on valid JSON it finds where the value ends and on
// anything else some length or 0.
func compositeLen(b []byte) int {
	if len(b) == 0 || (b[0] != '{' && b[0] != '[') {
		return 0
	}
	depth := 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
	return 0
}
