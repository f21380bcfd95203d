// Package transport implements the packet-level reliable transport the
// experiments run over, with a pluggable congestion-control algorithm
// (internal/cc), plus a constant-bit-rate UDP sender for the non-reactive
// entities of §5.2/§5.3.
//
// The transport is deliberately TCP-shaped but simplified to what the
// paper's experiments exercise: cumulative ACKs (one per data segment),
// SACK-based loss recovery in the style of RFC 6675 (the receiver echoes
// the sequence of the segment that triggered each ACK; the sender keeps a
// scoreboard and pipe estimate), an RTO with exponential backoff,
// per-packet ECN echo, and sender pacing when the window is fractional
// (Swift's cwnd < 1 regime).
package transport

import (
	"aqueue/internal/cc"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
)

// Options configures a sender beyond its CC algorithm.
type Options struct {
	// MSS is the payload bytes per segment; zero selects packet.DefaultMSS.
	MSS int
	// EcnCapable marks data packets ECT so queues and ECN-type AQs may
	// mark them. Set for DCTCP entities.
	EcnCapable bool
	// IngressAQ and EgressAQ are the AQ tags stamped on data packets
	// (§4.1: the hypervisor tags packets with granted AQ IDs).
	IngressAQ packet.AQID
	EgressAQ  packet.AQID
}

const (
	rtoMin       = sim.Millisecond
	rtoMax       = 100 * sim.Millisecond
	dupAckThresh = 3
	// rwndBytes models the receive window: the sender never runs more than
	// this many bytes past the cumulative ACK, exactly as flow control
	// bounds a real TCP sender.
	rwndBytes = 2 * 1000 * 1000
)

// Scoreboard segment states. A zero entry means "sent and presumed in
// flight" for sequences in [cumAck, nextSeq).
const (
	stSacked uint8 = iota + 1 // acknowledged out of order
	stLost                    // presumed lost, queued for retransmission
	stRetx                    // retransmitted, in flight again
)

// Sender is the sending half of a reliable flow. Create with NewSender,
// then call Start.
type Sender struct {
	eng  *sim.Engine
	pool *packet.Pool
	src  *topo.Host
	dst  *topo.Host
	flow packet.FlowID
	alg  cc.Algorithm
	opt  Options

	size    int64 // flow size in bytes; 0 means long-lived
	nextSeq int64
	cumAck  int64
	dupacks int

	// Loss-event gating for the CC (RFC 6582 "recover" semantics): one
	// window reduction per loss event.
	inRecovery bool
	recoverSeq int64

	// sb is the SACK scoreboard: one state per segment from cumAck on.
	// Every ACK touches it two or three times even on a clean path, so it
	// is a segRing rather than a map; its base advances with cumAck.
	sb segRing
	// rtxQ[rtxHead:] is the retransmission queue. Popping advances the
	// head, and the queue rewinds to the front of its array whenever it
	// empties, so appends reuse the array instead of allocating past its
	// end (see rtxKeep).
	rtxQ     []int64
	rtxHead  int
	pipe     int   // segments believed to be in the network
	lossScan int64 // sequences below this are classified
	fack     int64 // highest SACKed edge

	srtt, rttvar, minRTT sim.Time
	rto                  sim.Time
	rtoT                 *sim.Timer
	rtoDeadline          sim.Time // the time the RTO actually expires
	backoff              uint
	frontRetxAt          sim.Time // when the front hole was last retransmitted

	// Pacing state. nextPaced gates sends both in the fractional-window
	// regime (one segment per RTT/cwnd) and in the normal regime, where
	// segments are released at 1.25x cwnd/srtt like Linux's fair-queue
	// pacing — without it, window growth injects line-rate bursts that no
	// real NIC stack produces.
	nextPaced sim.Time
	pacedT    *sim.Timer

	done bool
	// OnComplete, when set, fires once when the last byte is acked.
	OnComplete func(now sim.Time)

	// Counters for tests and reports.
	SentPackets  uint64
	Retransmits  uint64
	Timeouts     uint64
	FastRecovers uint64

	receiver *Receiver
}

// NewSender wires a flow from src to dst carrying size bytes (0 = long
// lived) under the given CC algorithm, and installs the matching receiver
// on dst. The flow does not transmit until Start is called.
func NewSender(src, dst *topo.Host, size int64, alg cc.Algorithm, opt Options) *Sender {
	if opt.MSS == 0 {
		opt.MSS = packet.DefaultMSS
	}
	s := &Sender{
		eng:  src.Engine(),
		pool: packet.PoolFor(src.Engine()),
		src:  src,
		dst:  dst,
		flow: src.NextFlowID(),
		alg:  alg,
		opt:  opt,
		size: size,
		rto:  10 * sim.Millisecond,
		sb:   segRing{mss: int64(opt.MSS)},
	}
	// Both flow timers live on the engine's timer lane: re-arming on every
	// ACK or pacing gate is one sift among the engine's few armed timers,
	// and a fired or disarmed timer leaves nothing behind.
	s.rtoT = s.eng.NewTimer(s.onTimeout)
	s.pacedT = s.eng.NewTimer(s.trySend)
	s.receiver = newReceiver(dst, src.ID(), size, opt.MSS)
	src.Register(s.flow, s)
	dst.Register(s.flow, s.receiver)
	return s
}

// Flow returns the flow identifier.
func (s *Sender) Flow() packet.FlowID { return s.flow }

// Algorithm returns the CC algorithm instance driving this flow.
func (s *Sender) Algorithm() cc.Algorithm { return s.alg }

// Done reports whether the whole flow has been acknowledged.
func (s *Sender) Done() bool { return s.done }

// AckedBytes returns the cumulatively acknowledged bytes.
func (s *Sender) AckedBytes() int64 { return s.cumAck }

// Receiver returns the receiving half (for delivered-byte accounting).
func (s *Sender) Receiver() *Receiver { return s.receiver }

// Start schedules the first transmission after the given delay, on the
// pacing timer: both fire trySend, and nothing arms it before the first
// send.
func (s *Sender) Start(after sim.Time) {
	s.pacedT.ArmAfter(after)
}

// Stop halts a long-lived flow: timers are disarmed and the handlers
// unregistered.
func (s *Sender) Stop() {
	s.done = true
	s.rtoT.Disarm()
	s.pacedT.Disarm()
	s.src.Unregister(s.flow)
	s.dst.Unregister(s.flow)
}

// remaining reports whether there are new bytes left to send within the
// receive window.
func (s *Sender) remaining() bool {
	if s.nextSeq-s.cumAck >= rwndBytes {
		return false
	}
	return s.size == 0 || s.nextSeq < s.size
}

// segPayload returns the payload length of the segment starting at seq.
func (s *Sender) segPayload(seq int64) int { return segPayload(seq, s.size, int64(s.opt.MSS)) }

// trySend transmits retransmissions first, then new segments, while the
// pipe estimate stays under the congestion window, each send gated by the
// pacing deadline. A fractional window allows one segment in flight.
func (s *Sender) trySend() {
	if s.done {
		return
	}
	w := s.alg.Cwnd()
	now := s.eng.Now()
	for float64(s.pipe) < max(w, 1) {
		if now < s.nextPaced {
			// nextPaced only moves forward, so an already-armed pacing
			// timer can only be early: let it fire and re-check rather
			// than paying a re-arm on every gated attempt.
			if !s.pacedT.Pending() {
				s.pacedT.Arm(s.nextPaced)
			}
			return
		}
		var sent int
		if seq, ok := s.popRtx(); ok {
			s.sendSegment(seq, true)
			sent = s.segPayload(seq) + packet.HeaderBytes
		} else if s.remaining() {
			sent = s.segPayload(s.nextSeq) + packet.HeaderBytes
			s.sendSegment(s.nextSeq, false)
			s.nextSeq += int64(s.segPayload(s.nextSeq))
		} else {
			return
		}
		if d := s.paceDelay(sent, w); d > 0 {
			s.nextPaced = now + d
		}
	}
}

// paceDelay returns the spacing after a segment of sizeBytes sent under
// window w. A fractional window sends one segment every RTT/w, taking an
// RTT of 100 µs before the first sample; a whole one paces at 1.25x the
// cwnd/srtt rate, and not at all before an RTT estimate exists.
func (s *Sender) paceDelay(sizeBytes int, w float64) sim.Time {
	if w < 1 {
		rtt := s.srtt
		if rtt <= 0 {
			rtt = 100 * sim.Microsecond
		}
		return sim.FromFloat(float64(rtt) / w)
	}
	if s.srtt <= 0 {
		return 0
	}
	rate := 1.25 * w * float64(s.opt.MSS+packet.HeaderBytes) / float64(s.srtt)
	return sim.FromFloat(float64(sizeBytes) / rate)
}

// rtxKeep is the largest retransmission-queue array a sender keeps for
// reuse once the queue empties. A larger one — an RTO requeues the whole
// window — is released then, so a flow does not hold its worst loss
// episode's array for the rest of its life, while the small array a fast
// retransmit refills is reused instead of reallocated.
const rtxKeep = 2

// popRtx returns the next scoreboard-lost segment, skipping entries that
// have since been SACKed or cumulatively acknowledged.
func (s *Sender) popRtx() (int64, bool) {
	for s.rtxHead < len(s.rtxQ) {
		seq := s.rtxQ[s.rtxHead]
		if s.rtxHead++; s.rtxHead == len(s.rtxQ) {
			s.rtxQ, s.rtxHead = s.rtxQ[:0], 0
			if cap(s.rtxQ) > rtxKeep {
				s.rtxQ = nil
			}
		}
		if seq >= s.cumAck && s.sb.get(seq) == stLost {
			return seq, true
		}
	}
	return 0, false
}

// sendSegment emits the segment at seq and charges the pipe.
func (s *Sender) sendSegment(seq int64, retx bool) {
	p := s.pool.NewData(s.src.ID(), s.dst.ID(), s.flow, seq, s.segPayload(seq))
	p.SentAt = s.eng.Now()
	p.EcnCapable = s.opt.EcnCapable
	p.IngressAQ = s.opt.IngressAQ
	p.EgressAQ = s.opt.EgressAQ
	p.Retransmit = retx
	s.SentPackets++
	s.pipe++
	if retx {
		s.Retransmits++
		s.sb.set(seq, stRetx)
		if seq == s.cumAck {
			s.frontRetxAt = s.eng.Now()
		}
	}
	s.src.Send(p)
	// The RTO is anchored at the oldest outstanding segment: arm it only
	// when no timer is pending, so a steady stream of new sends cannot
	// push it out forever.
	if !s.rtoT.Pending() {
		s.armRTO()
	}
}

// markLost transitions an in-flight segment to lost and queues it for
// retransmission. Idempotent.
func (s *Sender) markLost(seq int64) {
	st := s.sb.get(seq)
	if st == stSacked || st == stLost {
		return
	}
	// In-flight (absent) and retransmitted segments both leave the pipe.
	s.sb.set(seq, stLost)
	s.pipe--
	if s.pipe < 0 {
		s.pipe = 0
	}
	s.rtxQ = append(s.rtxQ, seq)
}

// noteSack records the out-of-order information carried by an ACK.
func (s *Sender) noteSack(p *packet.Packet) {
	seq := p.EchoSeq
	if seq >= s.cumAck {
		switch s.sb.get(seq) {
		case stSacked:
			// already accounted
		case stLost:
			s.sb.set(seq, stSacked) // pipe already decremented
		default: // in flight or retransmitted
			s.sb.set(seq, stSacked)
			s.pipe--
			if s.pipe < 0 {
				s.pipe = 0
			}
		}
	}
	if edge := seq + int64(s.opt.MSS); edge > s.fack {
		s.fack = edge
	}
	s.advanceLossScan()
}

// advanceLossScan classifies segments more than dupAckThresh below the
// highest SACKed edge as lost (the FACK rule of RFC 6675).
func (s *Sender) advanceLossScan() {
	mss := int64(s.opt.MSS)
	upper := s.fack - dupAckThresh*mss
	if upper > s.nextSeq {
		upper = s.nextSeq
	}
	seq := s.lossScan
	if seq < s.cumAck {
		seq = s.cumAck
	}
	for ; seq < upper; seq += mss {
		s.markLost(seq)
	}
	if seq > s.lossScan {
		s.lossScan = seq
	}
}

// armRTO (re)schedules the retransmission timer. The deadline is lazy:
// while a timer is already armed it is left where it is (it can only be
// early, since the deadline slides forward under steady ACKs) and only the
// deadline field moves — onTimeout re-arms a too-early wakeup instead of
// acting. A flow under ACK clocking thus restarts its RTO with one field
// write per ACK instead of a timer re-arm per ACK.
func (s *Sender) armRTO() {
	timeout := s.rto << s.backoff
	if timeout > rtoMax {
		timeout = rtoMax
	}
	s.rtoDeadline = s.eng.Now() + timeout
	// An armed timer that fires at or before the deadline wakes early and
	// re-arms itself (onTimeout), so it can be left alone. One that fires
	// after the deadline cannot — the RTO estimate shrinks when the first
	// RTT sample replaces the conservative initial value — so pull it in.
	if s.rtoT.Pending() && s.rtoT.Time() <= s.rtoDeadline {
		return
	}
	s.rtoT.Arm(s.rtoDeadline)
}

// onTimeout handles a retransmission timeout: every unsacked outstanding
// segment is presumed lost, the pipe is reset, and transmission restarts
// from the front under the collapsed window. A wakeup before the lazily
// advanced deadline is not a timeout — it re-arms and goes back to sleep.
func (s *Sender) onTimeout() {
	if !s.done && s.eng.Now() < s.rtoDeadline {
		s.rtoT.Arm(s.rtoDeadline)
		return
	}
	if s.done || s.nextSeq == s.cumAck {
		return
	}
	s.Timeouts++
	s.backoff++
	s.alg.OnTimeout(s.eng.Now())
	s.dupacks = 0
	s.inRecovery = false
	mss := int64(s.opt.MSS)
	s.rtxQ, s.rtxHead = s.rtxQ[:0], 0
	s.pipe = 0
	for seq := s.cumAck; seq < s.nextSeq; seq += mss {
		if s.sb.get(seq) != stSacked {
			s.sb.set(seq, stLost)
			s.rtxQ = append(s.rtxQ, seq)
		}
	}
	s.trySend()
}

// Handle processes an incoming ACK (the sender is registered as the flow
// handler on the source host).
func (s *Sender) Handle(p *packet.Packet) {
	if p.Kind != packet.Ack || s.done {
		return
	}
	now := s.eng.Now()
	s.noteSack(p)
	if p.Ack > s.cumAck {
		s.onNewAck(now, p)
		return
	}
	// Duplicate ACK.
	if s.pipe == 0 && s.rtxHead == len(s.rtxQ) {
		return
	}
	s.dupacks++
	if s.dupacks == dupAckThresh {
		// The front hole is certainly lost. Marking only at exactly the
		// threshold (not above) avoids instantly re-marking a front
		// retransmission that is still in flight.
		s.markLost(s.cumAck)
		// One CC reduction per loss event (RFC 6582 recover guard).
		if !s.inRecovery && s.cumAck >= s.recoverSeq {
			s.inRecovery = true
			s.recoverSeq = s.nextSeq
			s.FastRecovers++
			s.alg.OnLoss(now)
		}
	} else if s.dupacks > dupAckThresh && s.sb.get(s.cumAck) == stRetx {
		// Rescue retransmission: the front retransmission itself appears
		// lost (duplicate ACKs keep arriving well past an RTT since it was
		// sent). Re-mark it so recovery does not stall until the RTO.
		wait := 2 * s.srtt
		if wait < 100*sim.Microsecond {
			wait = 100 * sim.Microsecond
		}
		if now-s.frontRetxAt > wait {
			s.sb.set(s.cumAck, 0) // force the lost transition
			s.markLost(s.cumAck)
		}
	}
	s.trySend()
}

// onNewAck processes a cumulative advance.
func (s *Sender) onNewAck(now sim.Time, p *packet.Packet) {
	acked := int(p.Ack - s.cumAck)
	mss := int64(s.opt.MSS)
	for seq := s.cumAck; seq < p.Ack; seq += mss {
		// In-flight and retransmitted segments leave the pipe; sacked and
		// lost ones were already removed when they changed state.
		if st := s.sb.get(seq); st != stSacked && st != stLost {
			s.pipe--
		}
	}
	s.sb.advance(p.Ack)
	if s.pipe < 0 {
		s.pipe = 0
	}
	s.cumAck = p.Ack
	if s.lossScan < p.Ack {
		s.lossScan = p.Ack
	}
	s.dupacks = 0
	s.backoff = 0
	rtt := s.updateRTT(now, p)
	s.alg.OnAck(cc.Ack{
		Now:   now,
		RTT:   rtt,
		Delay: s.delaySignal(rtt, p),
		ECE:   p.EcnEcho,
		Bytes: acked,
		MSS:   s.opt.MSS,
	})
	if s.inRecovery && s.cumAck >= s.recoverSeq {
		s.inRecovery = false
	}
	if s.size != 0 && s.cumAck >= s.size {
		s.complete(now)
		return
	}
	if s.nextSeq > s.cumAck {
		s.armRTO() // restart: the timer tracks the oldest outstanding data
	} else {
		s.rtoT.Disarm()
	}
	s.trySend()
}

// updateRTT folds a new sample into srtt/rttvar (RFC 6298 smoothing) and
// returns the sample.
func (s *Sender) updateRTT(now sim.Time, p *packet.Packet) sim.Time {
	if p.EchoSentAt <= 0 {
		return 0
	}
	sample := now - p.EchoSentAt
	if sample <= 0 {
		return 0
	}
	if s.minRTT == 0 || sample < s.minRTT {
		s.minRTT = sample
	}
	if s.srtt == 0 {
		s.srtt = sample
		s.rttvar = sample / 2
	} else {
		diff := s.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < rtoMin {
		s.rto = rtoMin
	}
	return sample
}

// delaySignal computes the fabric-delay feedback for delay-based CC: the
// physical queuing delay accumulated by the data packet (echoed) and by
// the ACK itself — the NIC-timestamp measurement Swift relies on — plus
// the virtual queuing delay stamped by AQs along the path (§3.3.2).
func (s *Sender) delaySignal(_ sim.Time, p *packet.Packet) sim.Time {
	return p.EchoQueueDelay + p.QueueDelay + p.EchoVirtualDelay
}

func (s *Sender) complete(now sim.Time) {
	s.done = true
	s.rtoT.Disarm()
	s.pacedT.Disarm()
	s.src.Unregister(s.flow)
	s.dst.Unregister(s.flow)
	if s.OnComplete != nil {
		s.OnComplete(now)
	}
}

// Receiver is the receiving half of a flow: it reassembles the byte stream
// cumulatively and acknowledges every new data segment, echoing the ECN
// mark, the send timestamp, the segment sequence (one-block SACK) and the
// accumulated virtual delay.
type Receiver struct {
	host *topo.Host    // the receiving host, which sends the ACKs
	peer packet.HostID // the sending host
	// pool is the receiving host's engine pool, which serves the ACKs.
	pool *packet.Pool
	size int64 // flow size in bytes; 0 means long-lived
	cum  int64
	// held flags the segments past cum that arrived out of order. A data
	// segment always starts on the MSS grid and carries segPayload of its
	// sequence, so a flag per segment is the whole reassembly state; the
	// ring's base follows cum.
	held segRing

	// RxData counts all data segments seen (including duplicates).
	RxData uint64
}

// newReceiver returns the receiving half of a flow of size bytes (0 =
// long lived) cut into mss-byte segments, sent from peer to host.
func newReceiver(host *topo.Host, peer packet.HostID, size int64, mss int) *Receiver {
	return &Receiver{
		host: host,
		peer: peer,
		pool: packet.PoolFor(host.Engine()),
		size: size,
		held: segRing{mss: int64(mss)},
	}
}

// Delivered returns the payload bytes delivered in order so far.
func (r *Receiver) Delivered() int64 { return r.cum }

// Handle processes an incoming data segment.
func (r *Receiver) Handle(p *packet.Packet) {
	if p.Kind != packet.Data {
		return
	}
	r.RxData++
	if p.Seq+int64(p.Payload) <= r.cum {
		// A fully duplicate segment (a spurious retransmission): acking it
		// would feed duplicate-ACK storms at the sender, so stay silent —
		// the moral equivalent of D-SACK suppression.
		return
	}
	switch {
	case p.Seq == r.cum:
		r.cum += int64(p.Payload)
		r.held.advance(r.cum)
		for r.held.get(r.cum) != 0 {
			r.cum += int64(segPayload(r.cum, r.size, r.held.mss))
			r.held.advance(r.cum)
		}
	case p.Seq > r.cum:
		r.held.set(p.Seq, 1)
	}
	ack := r.pool.NewAck(r.host.ID(), r.peer, p.Flow, r.cum)
	ack.EcnEcho = p.CE
	ack.EchoSentAt = p.SentAt
	ack.EchoVirtualDelay = p.VirtualDelay
	ack.EchoQueueDelay = p.QueueDelay
	ack.EchoSeq = p.Seq
	r.host.Send(ack)
}
