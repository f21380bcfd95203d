package cc

import "aqueue/internal/sim"

// Swift implements the delay-based algorithm of [34]: additive increase
// while the fabric delay is below a target, multiplicative decrease
// proportional to the overshoot (at most once per RTT), and fractional
// windows (cwnd < 1) realised through sender pacing when the target cannot
// sustain one packet per RTT.
//
// The fabric-delay signal comes from Ack.Delay, which under AQ is the
// virtual queuing delay of §3.3.2 and under a physical queue is the real
// queuing delay.
type Swift struct {
	cwnd float64

	// Target is the fabric delay target. The zero value selects
	// DefaultSwiftTarget.
	target sim.Time

	lastDecrease sim.Time
	lastRTT      sim.Time
}

// Swift constants (per the SIGCOMM'20 paper's recommended configuration).
const (
	swiftAI      = 1.0  // additive increase, packets per RTT
	swiftBeta    = 0.8  // multiplicative-decrease scaling
	swiftMaxMdf  = 0.5  // largest single decrease
	swiftMinCwnd = 0.01 // fractional floor (paced)
	// DefaultSwiftTarget is the default fabric-delay target. It sits below
	// the delay a DCTCP-threshold queue imposes at 10 Gbps (52 us at the threshold), which
	// is what starves Swift when it shares a physical queue with CC
	// algorithms that fill the queue to the marking point (§2.2).
	DefaultSwiftTarget = 30 * sim.Microsecond
)

// NewSwift returns a Swift controller with the default delay target.
func NewSwift() *Swift { return NewSwiftTarget(DefaultSwiftTarget) }

// NewSwiftTarget returns a Swift controller with an explicit delay target.
func NewSwiftTarget(target sim.Time) *Swift {
	if target <= 0 {
		target = DefaultSwiftTarget
	}
	return &Swift{cwnd: initialCwnd, target: target}
}

// Name implements Algorithm.
func (s *Swift) Name() string { return "swift" }

// Cwnd implements Algorithm.
func (s *Swift) Cwnd() float64 { return s.cwnd }

// OnAck implements Algorithm.
func (s *Swift) OnAck(a Ack) {
	if a.RTT > 0 {
		s.lastRTT = a.RTT
	}
	segs := ackSegs(a)
	if a.Delay < s.target {
		if s.cwnd >= 1 {
			s.cwnd += swiftAI * segs / s.cwnd
		} else {
			s.cwnd += swiftAI * segs * s.cwnd // paced regime grows slowly
		}
	} else if s.canDecrease(a.Now) {
		over := float64(a.Delay-s.target) / float64(a.Delay)
		mdf := swiftBeta * over
		if mdf > swiftMaxMdf {
			mdf = swiftMaxMdf
		}
		s.cwnd *= 1 - mdf
		s.lastDecrease = a.Now
	}
	s.cwnd = clamp(s.cwnd, swiftMinCwnd, maxCwnd)
}

// canDecrease gates multiplicative decreases to once per RTT.
func (s *Swift) canDecrease(now sim.Time) bool {
	rtt := s.lastRTT
	if rtt <= 0 {
		rtt = 100 * sim.Microsecond
	}
	return now-s.lastDecrease >= rtt
}

// OnLoss implements Algorithm.
func (s *Swift) OnLoss(now sim.Time) {
	if s.canDecrease(now) {
		s.cwnd = clamp(s.cwnd*(1-swiftMaxMdf), swiftMinCwnd, maxCwnd)
		s.lastDecrease = now
	}
}

// OnTimeout implements Algorithm.
func (s *Swift) OnTimeout(now sim.Time) {
	s.cwnd = clamp(s.cwnd*(1-swiftMaxMdf), swiftMinCwnd, maxCwnd)
	s.lastDecrease = now
}
