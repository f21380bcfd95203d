package transport

import (
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/units"
)

// UDPSender is a constant-bit-rate unreliable sender. The paper's UDP
// entities blast at the link capacity (§5.2) and react to nothing, which is
// what makes them starve TCP under a shared physical queue and what AQ's
// limit-drops contain.
type UDPSender struct {
	eng  *sim.Engine
	pool *packet.Pool
	src  *topo.Host
	dst  *topo.Host
	flow packet.FlowID
	rate units.BitRate
	mss  int
	opt  Options

	interval sim.Time
	tickT    *sim.Timer
	running  bool
	seq      int64

	// SentPackets counts emitted packets.
	SentPackets uint64

	sink *UDPSink
}

// UDPSink counts what a UDP receiver actually gets.
type UDPSink struct {
	RxPackets uint64
	RxBytes   uint64
}

// Handle implements topo.FlowHandler.
func (u *UDPSink) Handle(p *packet.Packet) {
	u.RxPackets++
	u.RxBytes += uint64(p.Size)
}

// NewUDPSender wires a CBR flow from src to dst at the given rate and
// installs a counting sink on dst. AQ tags from opt are stamped on every
// packet; MSS defaults as for TCP senders.
func NewUDPSender(src, dst *topo.Host, rate units.BitRate, opt Options) *UDPSender {
	if opt.MSS == 0 {
		opt.MSS = packet.DefaultMSS
	}
	u := &UDPSender{
		eng:  src.Engine(),
		pool: packet.PoolFor(src.Engine()),
		src:  src,
		dst:  dst,
		flow: src.NextFlowID(),
		rate: rate,
		mss:  opt.MSS,
		opt:  opt,
		sink: &UDPSink{},
	}
	size := opt.MSS + packet.HeaderBytes
	u.interval = sim.Time(rate.TransmitNanos(size))
	if u.interval <= 0 {
		u.interval = 1
	}
	u.tickT = u.eng.NewTimer(u.tick)
	dst.Register(u.flow, u.sink)
	return u
}

// Sink returns the receive-side counters.
func (u *UDPSender) Sink() *UDPSink { return u.sink }

// Start begins transmission after the given delay.
func (u *UDPSender) Start(after sim.Time) {
	u.running = true
	u.tickT.ArmAfter(after)
}

// Stop halts transmission.
func (u *UDPSender) Stop() {
	u.running = false
	u.tickT.Disarm()
}

func (u *UDPSender) tick() {
	if !u.running {
		return
	}
	p := u.pool.NewData(u.src.ID(), u.dst.ID(), u.flow, u.seq, u.mss)
	p.SentAt = u.eng.Now()
	p.IngressAQ = u.opt.IngressAQ
	p.EgressAQ = u.opt.EgressAQ
	u.seq += int64(u.mss)
	u.SentPackets++
	u.src.Send(p)
	// One persistent timer carries every tick for the life of the sender.
	u.tickT.ArmAfter(u.interval)
}
