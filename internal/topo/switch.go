package topo

import (
	"fmt"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// Switch is a store-and-forward switch with per-destination routing and the
// two AQ match points of §4.2: the ingress pipeline (matched on the
// packet's IngressAQ tag when the packet arrives) and the egress pipeline
// (matched on the EgressAQ tag before the packet is enqueued on its output
// port).
type Switch struct {
	eng   *sim.Engine
	pool  *packet.Pool
	name  string
	ports []*Pipe

	// fwd is the forwarding table, indexed by destination host ID: each
	// entry holds the routed egress pipe, or the ECMP pipe group hashed per
	// flow ID (one flow always follows one path, so no reordering, while
	// flows spread across the group). Builders number hosts 0..n-1 and
	// route every one, so the slice is as long as the host count.
	fwd []fwdEntry

	// Ingress and Egress are the AQ tables for the two pipeline positions.
	Ingress *core.Table
	Egress  *core.Table

	// AQHook, when set, observes every packet an AQ of either table marks
	// or drops: t is the table whose AQ decided, v is Mark or Drop. It runs
	// before a dropped packet is released.
	AQHook func(t *core.Table, v core.Verdict, p *packet.Packet)

	// WorkConserving enables the §6 extension: AQ processing is bypassed
	// while the physical queue of the packet's output port is empty, so
	// entities may exceed their allocations when the network is idle.
	WorkConserving bool

	// Counters.
	RxPackets  uint64
	AQDrops    uint64
	RouteMiss  uint64
	AQBypassed uint64
}

// NewSwitch returns an empty switch.
func NewSwitch(eng *sim.Engine, name string) *Switch {
	return &Switch{
		eng:     eng,
		pool:    packet.PoolFor(eng),
		name:    name,
		Ingress: core.NewTable(),
		Egress:  core.NewTable(),
	}
}

// Engine returns the simulation engine the switch runs on.
func (s *Switch) Engine() *sim.Engine { return s.eng }

// Name returns the name the switch was built with.
func (s *Switch) Name() string { return s.name }

// AddPort attaches an egress pipe and returns its port number.
func (s *Switch) AddPort(p *Pipe) int {
	s.ports = append(s.ports, p)
	return len(s.ports) - 1
}

// Port returns the pipe of the given port number.
func (s *Switch) Port(n int) *Pipe { return s.ports[n] }

// AddRoute directs traffic for dst out of the given port. An exact route
// shadows any ECMP group for dst.
func (s *Switch) AddRoute(dst packet.HostID, port int) {
	s.entry(dst, port).pipe = s.ports[port]
}

// AddECMPRoute directs traffic for dst over the given port group, hashed
// by flow ID.
func (s *Switch) AddECMPRoute(dst packet.HostID, ports ...int) {
	e := s.entry(dst, ports...)
	e.group = make([]*Pipe, len(ports))
	for i, port := range ports {
		e.group[i] = s.ports[port]
	}
}

// fwdEntry is one forwarding slot: an exact route's pipe, or an ECMP group.
// The exact route wins when both are set.
type fwdEntry struct {
	pipe  *Pipe
	group []*Pipe
}

// entry validates a route to dst via ports and returns dst's forwarding
// slot, growing the table to cover it. A negative destination panics like
// an invalid port.
func (s *Switch) entry(dst packet.HostID, ports ...int) *fwdEntry {
	if dst < 0 {
		panic(fmt.Sprintf("switch %s: route to invalid destination %d", s.name, dst))
	}
	for _, port := range ports {
		if port < 0 || port >= len(s.ports) {
			panic(fmt.Sprintf("switch %s: route to %d via invalid port %d", s.name, dst, port))
		}
	}
	if n := int(dst) + 1; n > len(s.fwd) {
		s.fwd = append(s.fwd, make([]fwdEntry, n-len(s.fwd))...)
	}
	return &s.fwd[dst]
}

// outPipe resolves the egress pipe for a packet: its destination's exact
// route, else its ECMP group by flow hash, else nil.
func (s *Switch) outPipe(p *packet.Packet) *Pipe {
	if d := uint(p.Dst); d < uint(len(s.fwd)) {
		e := &s.fwd[d]
		if e.pipe != nil {
			return e.pipe
		}
		if n := uint64(len(e.group)); n > 0 {
			return e.group[flowHash(p.Flow)%n]
		}
	}
	return nil
}

// flowHash mixes the flow ID (splitmix64 finalizer) so consecutive IDs
// spread across ECMP groups.
func flowHash(f packet.FlowID) uint64 {
	z := uint64(f) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Receive implements Receiver: it runs the ingress AQ pipeline, routes the
// packet, runs the egress AQ pipeline, and enqueues on the output port.
func (s *Switch) Receive(p *packet.Packet) {
	s.RxPackets++
	out := s.outPipe(p)
	if out == nil {
		s.RouteMiss++
		s.pool.Release(p)
		return
	}
	if s.WorkConserving && out.Backlog() == 0 {
		// §6: bypass AQ while the physical queue is empty.
		s.AQBypassed++
		out.Send(p)
		return
	}
	now := s.eng.Now()
	if v := s.Ingress.Process(now, p.IngressAQ, p); v != core.Pass && s.aqVerdict(s.Ingress, v, p) {
		return
	}
	if v := s.Egress.Process(now, p.EgressAQ, p); v != core.Pass && s.aqVerdict(s.Egress, v, p) {
		return
	}
	out.Send(p)
}

// SwitchStats is a snapshot of the switch's data-plane counters, following
// the repo-wide stats convention (value type, no locks held). The AQ
// tables keep their own TableStats.
type SwitchStats struct {
	RxPackets  uint64 `json:"rx_packets"`
	AQDrops    uint64 `json:"aq_drops"`
	RouteMiss  uint64 `json:"route_miss"`
	AQBypassed uint64 `json:"aq_bypassed"`
}

// Stats returns a snapshot of the forwarding counters.
func (s *Switch) Stats() SwitchStats {
	return SwitchStats{
		RxPackets:  s.RxPackets,
		AQDrops:    s.AQDrops,
		RouteMiss:  s.RouteMiss,
		AQBypassed: s.AQBypassed,
	}
}

// aqVerdict reports a mark or drop by table t's AQ to AQHook and, on a
// drop, accounts it and releases the packet: the switch is the packet's
// last owner on this path. It reports whether the packet was dropped.
func (s *Switch) aqVerdict(t *core.Table, v core.Verdict, p *packet.Packet) bool {
	if s.AQHook != nil {
		s.AQHook(t, v, p)
	}
	if v != core.Drop {
		return false
	}
	s.AQDrops++
	s.pool.Release(p)
	return true
}

// String identifies the switch in logs.
func (s *Switch) String() string { return "switch:" + s.name }
