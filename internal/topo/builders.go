package topo

import (
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// LinkSpec bundles the parameters of one link class.
type LinkSpec struct {
	Rate         units.BitRate
	Delay        sim.Time
	QueueLimit   int // bytes
	ECNThreshold int // bytes; 0 disables physical ECN marking
	// Jitter adds a uniform [0, Jitter) component to per-packet
	// propagation, modelling clock and processing noise; without it,
	// equal-rate continuous streams phase-lock at contention points.
	Jitter sim.Time
	// AQMDrop selects step-AQM (RED/ECN) semantics at the queue: above
	// the ECN threshold, non-ECN-capable packets are dropped instead of
	// queued. The paper's NS3 platform behaves this way; its Tofino
	// testbed does not. See queue.FIFO.AQMDropNonECT.
	AQMDrop bool
}

// DefaultSim matches the paper's NS3 setup (§5.1): 10 Gbps links with 10 us
// propagation delay. The queue limit and DCTCP-style marking threshold are
// the usual values for that speed.
func DefaultSim() LinkSpec {
	return LinkSpec{
		Rate:         10 * units.Gbps,
		Delay:        10 * sim.Microsecond,
		QueueLimit:   400 * 1000,
		ECNThreshold: 65 * 1000,
		Jitter:       400,
		AQMDrop:      true,
	}
}

// DefaultTestbed matches the paper's Tofino setup at 25 Gbps (§5.4).
func DefaultTestbed() LinkSpec {
	return LinkSpec{
		Rate:         25 * units.Gbps,
		Delay:        2 * sim.Microsecond,
		QueueLimit:   1000 * 1000,
		ECNThreshold: 160 * 1000,
		Jitter:       160,
	}
}

// build is one topology construction on one engine. A topology's wiring
// is one method on it; every pipe draws its AQM and jitter seeds from the
// engine's "queue.aqm" and "topo.pipe" sequences and every host its flow
// IDs from the engine's "transport.flow" sequence, so a run's identities
// follow construction order (DESIGN.md §3b).
type build struct {
	eng     *sim.Engine
	pipeSeq sim.SeqDomain
}

func newBuild(eng *sim.Engine) *build {
	return &build{eng: eng, pipeSeq: eng.SeqDomain("topo.pipe")}
}

// pipe builds one link direction delivering into dst.
func (b *build) pipe(spec LinkSpec, dst Receiver) *Pipe {
	p := NewPipe(b.eng, spec.Rate, spec.Delay, spec.QueueLimit, spec.ECNThreshold, dst)
	p.Queue().AQMDropNonECT = spec.AQMDrop
	if spec.Jitter > 0 {
		p.SetJitter(spec.Jitter, 0x9e3779b9+b.eng.NextIn(b.pipeSeq)*0x1234567)
	}
	return p
}

// Dumbbell is the simulation topology of Fig. 5a: nLeft senders attach to
// switch S1, nRight receivers to S2, and S1—S2 is the shared bottleneck.
type Dumbbell struct {
	Eng          *sim.Engine
	Left, Right  []*Host
	S1, S2       *Switch
	Bottleneck   *Pipe // S1 -> S2 direction (the shared bottleneck)
	ReverseTrunk *Pipe // S2 -> S1 direction (carries ACKs)
}

// NewDumbbell builds a dumbbell on one engine. Host IDs are 0..nLeft-1 on
// the left and nLeft..nLeft+nRight-1 on the right. edge configures
// host<->switch links, trunk the S1<->S2 bottleneck.
func NewDumbbell(eng *sim.Engine, nLeft, nRight int, edge, trunk LinkSpec) *Dumbbell {
	return newBuild(eng).dumbbell(nLeft, nRight, edge, trunk)
}

func (b *build) dumbbell(nLeft, nRight int, edge, trunk LinkSpec) *Dumbbell {
	d := &Dumbbell{
		Eng: b.eng,
		S1:  NewSwitch(b.eng, "S1"),
		S2:  NewSwitch(b.eng, "S2"),
	}
	d.Bottleneck = b.pipe(trunk, d.S2)
	d.ReverseTrunk = b.pipe(trunk, d.S1)
	trunkPort1 := d.S1.AddPort(d.Bottleneck)
	trunkPort2 := d.S2.AddPort(d.ReverseTrunk)

	id := packet.HostID(0)
	for i := 0; i < nLeft; i++ {
		h := NewHost(b.eng, id)
		h.SetUplink(b.pipe(edge, d.S1))
		down := b.pipe(edge, h)
		port := d.S1.AddPort(down)
		d.S1.AddRoute(id, port)
		d.S2.AddRoute(id, trunkPort2)
		d.Left = append(d.Left, h)
		id++
	}
	for i := 0; i < nRight; i++ {
		h := NewHost(b.eng, id)
		h.SetUplink(b.pipe(edge, d.S2))
		down := b.pipe(edge, h)
		port := d.S2.AddPort(down)
		d.S2.AddRoute(id, port)
		d.S1.AddRoute(id, trunkPort1)
		d.Right = append(d.Right, h)
		id++
	}
	return d
}

// Host returns the host with the given global ID.
func (d *Dumbbell) Host(id packet.HostID) *Host {
	if int(id) < len(d.Left) {
		return d.Left[id]
	}
	return d.Right[int(id)-len(d.Left)]
}

// Star is the testbed topology of Fig. 2 / Fig. 5b: n hosts (VMs) attached
// to a single switch.
type Star struct {
	Eng   *sim.Engine
	Hosts []*Host
	SW    *Switch
	// Down[i] is the switch->host pipe of host i (where inbound traffic of
	// VM i queues — the egress-AQ match point for inbound guarantees).
	Down []*Pipe
}

// NewStar builds a star with n hosts on one engine using the given link
// spec.
func NewStar(eng *sim.Engine, n int, edge LinkSpec) *Star {
	return newBuild(eng).star(n, edge)
}

func (b *build) star(n int, edge LinkSpec) *Star {
	s := &Star{Eng: b.eng, SW: NewSwitch(b.eng, "SW")}
	for i := 0; i < n; i++ {
		id := packet.HostID(i)
		h := NewHost(b.eng, id)
		h.SetUplink(b.pipe(edge, s.SW))
		down := b.pipe(edge, h)
		port := s.SW.AddPort(down)
		s.SW.AddRoute(id, port)
		s.Hosts = append(s.Hosts, h)
		s.Down = append(s.Down, down)
	}
	return s
}
