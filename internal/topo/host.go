package topo

import (
	"aqueue/internal/ident"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// FlowHandler consumes packets belonging to one transport flow.
type FlowHandler interface {
	Handle(p *packet.Packet)
}

// SendFilter intercepts a host's outbound packets before they reach the
// NIC. Returning true means the filter consumed the packet (e.g. queued it
// in an end-host rate limiter that will transmit it later via Transmit);
// false lets the packet go straight out. This is how the PRL/DRL baselines
// (§5.1) attach to hosts without the transport knowing.
type SendFilter func(p *packet.Packet) bool

// Host is an end host (a VM in the paper's terms): it owns the uplink pipe
// to its switch, dispatches received packets to per-flow handlers, and runs
// outbound packets through an optional SendFilter.
type Host struct {
	eng  *sim.Engine
	pool *packet.Pool
	id   packet.HostID
	out  *Pipe

	// handlers dispatches flow ID → handler. Flow IDs come from the
	// engine's "transport.flow" sequence, so per host they stay dense
	// enough for the index's slice until flows churn far past the live
	// set, and its map serves after that.
	handlers ident.Index[packet.FlowID, FlowHandler]

	// flowSeq is the host engine's pre-registered "transport.flow" handle
	// (the sequence transport draws flow IDs from): registering once at
	// construction keeps per-flow allocation off the string-keyed map.
	flowSeq sim.SeqDomain

	// Filter, when non-nil, intercepts outbound packets (see SendFilter).
	Filter SendFilter

	// RxHook, when set, observes every packet delivered to this host
	// before flow dispatch; the experiment harness uses it for throughput
	// and delay measurement, and a trace ring for its receive events.
	RxHook func(p *packet.Packet)

	// TxHook, when set, observes every packet this host sends, before the
	// send filter sees it.
	TxHook func(p *packet.Packet)

	// Counters.
	RxPackets uint64
	RxBytes   uint64
	Orphans   uint64 // packets with no registered flow handler
}

// NewHost returns a host with the given ID; attach its uplink with SetUplink.
func NewHost(eng *sim.Engine, id packet.HostID) *Host {
	return &Host{
		eng:     eng,
		pool:    packet.PoolFor(eng),
		id:      id,
		flowSeq: eng.SeqDomain("transport.flow"),
	}
}

// HostStats is a snapshot of the host's delivery counters, following the
// repo-wide stats convention (value type, no locks held).
type HostStats struct {
	RxPackets uint64 `json:"rx_packets"`
	RxBytes   uint64 `json:"rx_bytes"`
	Orphans   uint64 `json:"orphans"`
}

// Stats returns a snapshot of the delivery counters.
func (h *Host) Stats() HostStats {
	return HostStats{RxPackets: h.RxPackets, RxBytes: h.RxBytes, Orphans: h.Orphans}
}

// NextFlowID allocates the ID for a flow originating at this host from the
// engine's shared "transport.flow" sequence via the pre-registered handle.
func (h *Host) NextFlowID() packet.FlowID {
	return packet.FlowID(h.eng.NextIn(h.flowSeq))
}

// ID returns the host identifier.
func (h *Host) ID() packet.HostID { return h.id }

// Engine returns the simulation engine the host runs on.
func (h *Host) Engine() *sim.Engine { return h.eng }

// SetUplink attaches the pipe that carries this host's outbound traffic.
func (h *Host) SetUplink(p *Pipe) { h.out = p }

// Uplink returns the host's outbound pipe.
func (h *Host) Uplink() *Pipe { return h.out }

// Register installs the handler for a flow ID.
func (h *Host) Register(id packet.FlowID, fh FlowHandler) { h.handlers.Set(id, fh) }

// Unregister removes a flow handler.
func (h *Host) Unregister(id packet.FlowID) { h.handlers.Delete(id) }

// Receive implements Receiver: account the packet, dispatch by flow ID,
// and release it — delivery ends the packet's ownership chain. Handlers
// and hooks may read the packet during the call but must not retain it.
func (h *Host) Receive(p *packet.Packet) {
	h.RxPackets++
	h.RxBytes += uint64(p.Size)
	if h.RxHook != nil {
		h.RxHook(p)
	}
	if fh := h.handlers.Get(p.Flow); fh != nil {
		fh.Handle(p)
	} else {
		h.Orphans++
	}
	h.pool.Release(p)
}

// Send emits a packet from this host, honouring the send filter.
func (h *Host) Send(p *packet.Packet) {
	if h.TxHook != nil {
		h.TxHook(p)
	}
	if h.Filter != nil && h.Filter(p) {
		return
	}
	h.Transmit(p)
}

// Transmit puts the packet on the uplink, bypassing the send filter. Rate
// limiters call this when they release a shaped packet.
func (h *Host) Transmit(p *packet.Packet) { h.out.Send(p) }
