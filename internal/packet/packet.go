// Package packet defines the on-the-wire unit the simulator moves around.
//
// A Packet carries the fields a real data-center header stack would: L2/L3
// addressing (collapsed to host IDs), a transport flow ID with sequence and
// acknowledgement numbers, the two ECN bits, and — per §4.1 of the paper —
// the two AQ ID tags (one matched at the ingress pipeline, one at the
// egress pipeline) plus the piggybacked virtual queuing delay AQ accumulates
// for delay-based congestion control (§3.3.2).
package packet

import (
	"fmt"

	"aqueue/internal/sim"
)

// HostID identifies an end host (a VM in the paper's terminology).
type HostID int32

// FlowID identifies a transport flow end to end.
type FlowID uint64

// AQID identifies an augmented queue. The zero value is the default tag
// meaning "no AQ deployed at this position" (§4.1: "The field is set to a
// default value if there is no AQ deployed at either position").
type AQID uint32

// NoAQ is the default AQ tag.
const NoAQ AQID = 0

// Kind distinguishes the transport payload types the simulator models.
type Kind uint8

const (
	// Data is a transport data segment.
	Data Kind = iota
	// Ack is a transport acknowledgement.
	Ack
)

// Default sizes in bytes. MSS-sized data packets plus a fixed header; ACKs
// are header-only. The values mirror common NS3 DC configurations.
const (
	HeaderBytes  = 40
	DefaultMSS   = 1000
	MaxDataBytes = DefaultMSS + HeaderBytes
)

// Packet is one simulated packet. Packets are pool-allocated (see pool.go)
// and owned by exactly one component at a time (queue, wire, or endpoint),
// so no copying or locking is needed; the owner that terminates the chain
// — a drop site or the delivering host — releases it back to the pool.
type Packet struct {
	Src, Dst HostID
	Flow     FlowID
	Size     int // bytes on the wire, including header

	// Transport fields.
	Seq     int64 // first payload byte of a Data segment
	Ack     int64 // cumulative ACK (valid when Kind == Ack)
	Payload int   // payload bytes of a Data segment
	// EchoSeq, on an ACK, is the sequence number of the data segment that
	// triggered it — a one-block SACK that lets the sender run FACK-style
	// loss recovery.
	EchoSeq int64

	// VirtualDelay is the accumulated virtual queuing delay A(k)/R stamped
	// by delay-type AQs along the path; the receiver echoes it back on the
	// ACK in EchoVirtualDelay so the sender's delay-based CC can use it.
	VirtualDelay     sim.Time
	EchoVirtualDelay sim.Time

	// QueueDelay is the accumulated physical queuing delay the packet
	// experienced (stamped at each dequeue), standing in for the NIC
	// hardware timestamps Swift-class algorithms use to measure fabric
	// delay. The receiver echoes the data packet's value in
	// EchoQueueDelay.
	QueueDelay     sim.Time
	EchoQueueDelay sim.Time

	// Timestamps. SentAt is set by the sender and echoed on the ACK in
	// EchoSentAt for RTT measurement; EnqueuedAt is bookkeeping for
	// physical-queue delay statistics.
	SentAt     sim.Time
	EchoSentAt sim.Time
	EnqueuedAt sim.Time

	// The one-byte fields and the two AQ tags share the last 16 bytes, so
	// a Packet is 128 bytes — two cache lines — on a 64-bit machine.
	Kind Kind

	// ECN: CE is the congestion-experienced codepoint set by queues/AQs;
	// EcnCapable gates marking (UDP entities in the experiments are not
	// ECN-capable, so AQ drops their excess instead); EcnEcho is the
	// receiver's echo carried on ACKs.
	EcnCapable bool
	CE         bool
	EcnEcho    bool

	// Retransmission marker, used by transport accounting and tests.
	Retransmit bool

	// AQ tags matched by switches (§4.2). Tenants tag data packets; ACKs
	// carry NoAQ and bypass AQ processing.
	IngressAQ AQID
	EgressAQ  AQID
}

// NewData builds an MSS-or-smaller data segment in fresh memory, outside
// any pool. Engine-bound components use their engine's Pool.NewData
// instead; this constructor is for callers with no engine, such as tests.
func NewData(src, dst HostID, flow FlowID, seq int64, payload int) *Packet {
	p := new(Packet)
	fillData(p, src, dst, flow, seq, payload)
	return p
}

func fillData(p *Packet, src, dst HostID, flow FlowID, seq int64, payload int) {
	p.Src = src
	p.Dst = dst
	p.Flow = flow
	p.Kind = Data
	p.Size = payload + HeaderBytes
	p.Seq = seq
	p.Payload = payload
}

// NewAck builds a header-only acknowledgement for the given flow in fresh
// memory, outside any pool; engine-bound components use Pool.NewAck.
func NewAck(src, dst HostID, flow FlowID, ack int64) *Packet {
	p := new(Packet)
	fillAck(p, src, dst, flow, ack)
	return p
}

func fillAck(p *Packet, src, dst HostID, flow FlowID, ack int64) {
	p.Src = src
	p.Dst = dst
	p.Flow = flow
	p.Kind = Ack
	p.Size = HeaderBytes
	p.Ack = ack
}

// String renders a compact description for logs and test failures.
func (p *Packet) String() string {
	k := "DATA"
	if p.Kind == Ack {
		k = "ACK"
	}
	return fmt.Sprintf("%s %d->%d flow=%d seq=%d ack=%d size=%d ce=%v aq=(%d,%d)",
		k, p.Src, p.Dst, p.Flow, p.Seq, p.Ack, p.Size, p.CE, p.IngressAQ, p.EgressAQ)
}
