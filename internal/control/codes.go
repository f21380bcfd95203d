package control

import (
	"errors"
	"fmt"
)

// ProtoV2 is the wire protocol: the controller verbs of §4.1, the service
// verbs (attach/detach, set_rate/set_weight, stats/watch/trace, run
// control), machine-readable error codes and structured payloads in
// "data". A request's "v" field is optional; absent or 2 means this
// protocol, and any other value is refused with CodeUnsupportedVersion.
// Every response carries "v":2.
const ProtoV2 = 2

// Machine-readable error codes carried in WireResponse.Code. The
// human-readable Error string may change freely; scripts branch on these.
const (
	// CodeMalformed: the request line was not valid JSON.
	CodeMalformed = "malformed"
	// CodeUnsupportedVersion: the request's "v" is neither absent nor 2.
	CodeUnsupportedVersion = "unsupported_version"
	// CodeUnknownOp: the op is not recognized.
	CodeUnknownOp = "unknown_op"
	// CodeBadRequest: the op is known but its arguments are invalid.
	CodeBadRequest = "bad_request"
	// CodeInsufficientBandwidth: an absolute grant or reconfiguration does
	// not fit the link capacity.
	CodeInsufficientBandwidth = "insufficient_bandwidth"
	// CodeUnknownTable: the switch/position names no registered table.
	CodeUnknownTable = "unknown_table"
	// CodeUnknownID: the AQ or driver id names nothing currently granted.
	CodeUnknownID = "unknown_id"
	// CodeNotPaused: a step was requested while the fabric free-runs.
	CodeNotPaused = "not_paused"
	// CodeShuttingDown: the service is quitting; no further mutations.
	CodeShuttingDown = "shutting_down"
	// CodeInternal: the server failed to encode a payload (a bug).
	CodeInternal = "internal"
	// CodeTooLarge: the reply would be a line longer than MaxLine; ask for
	// less (a smaller trace count).
	CodeTooLarge = "too_large"
)

// Errf builds an error response with a machine-readable code.
func Errf(code, format string, args ...any) WireResponse {
	return WireResponse{Error: fmt.Sprintf(format, args...), Code: code}
}

// ErrToResponse maps a controller error to its wire form: the sentinel
// errors get their dedicated codes, anything else is a bad request.
func ErrToResponse(err error) WireResponse {
	code := CodeBadRequest
	switch {
	case errors.Is(err, ErrInsufficientBandwidth):
		code = CodeInsufficientBandwidth
	case errors.Is(err, ErrUnknownID):
		code = CodeUnknownID
	}
	return WireResponse{Error: err.Error(), Code: code}
}
