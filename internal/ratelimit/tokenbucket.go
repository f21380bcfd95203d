// Package ratelimit implements the two end-host rate-limiting baselines the
// paper compares AQ against (§5.1): the pre-determined rate limiter (PRL,
// an HTB-style static token bucket per VM) and the dynamic rate limiter
// (DRL, an ElasticSwitch-style controller that re-divides guarantees among
// communicating VM pairs every 15 ms).
package ratelimit

import (
	"aqueue/internal/packet"
	"aqueue/internal/queue"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/units"
)

// TokenBucket is an event-driven token-bucket shaper: packets submitted
// while tokens are available leave immediately; otherwise they queue (up to
// a byte limit, like an HTB qdisc buffer) and are released as tokens refill.
type TokenBucket struct {
	eng    *sim.Engine
	pool   *packet.Pool
	rate   float64 // bytes per nanosecond
	tokens float64
	last   sim.Time
	q      *queue.FIFO
	out    func(*packet.Packet)
	drainT *sim.Timer

	// Dropped counts queue-limit drops.
	Dropped uint64
}

const (
	// Shaper queue: deep enough to absorb a window, small enough that
	// unresponsive senders see loss (as with a real qdisc).
	defaultShaperQueue = 500 * 1000
	// burst is the bucket depth in bytes: three full-size packets.
	burst = 3 * packet.MaxDataBytes
)

// NewTokenBucket builds a shaper releasing packets through out.
func NewTokenBucket(eng *sim.Engine, rate units.BitRate, out func(*packet.Packet)) *TokenBucket {
	tb := &TokenBucket{
		eng:    eng,
		pool:   packet.PoolFor(eng),
		rate:   rate.BytesPerNano(),
		tokens: burst,
		q:      queue.New(defaultShaperQueue, 0),
		out:    out,
	}
	tb.drainT = eng.NewTimer(tb.drain)
	return tb
}

// Rate returns the configured rate.
func (tb *TokenBucket) Rate() units.BitRate {
	return units.BitRate(tb.rate * 8e9)
}

// SetRate changes the shaping rate, preserving accumulated tokens. Any
// pending release timer is rescheduled under the new rate.
func (tb *TokenBucket) SetRate(r units.BitRate) {
	tb.refill()
	tb.rate = r.BytesPerNano()
	tb.drainT.Disarm()
	tb.schedule()
}

// Backlog returns the queued bytes waiting for tokens.
func (tb *TokenBucket) Backlog() int { return tb.q.Bytes() }

// Submit shapes one packet.
func (tb *TokenBucket) Submit(p *packet.Packet) {
	tb.refill()
	if tb.q.Len() == 0 && tb.tokens >= float64(p.Size) {
		tb.tokens -= float64(p.Size)
		tb.out(p)
		return
	}
	if !tb.q.Push(tb.eng.Now(), p) {
		tb.Dropped++
		tb.pool.Release(p)
		return
	}
	tb.schedule()
}

// refill adds tokens for the time elapsed since the last refill.
func (tb *TokenBucket) refill() {
	now := tb.eng.Now()
	tb.tokens += float64(now-tb.last) * tb.rate
	if tb.tokens > burst {
		tb.tokens = burst
	}
	tb.last = now
}

// drain releases every packet the current tokens cover, then reschedules.
func (tb *TokenBucket) drain() {
	tb.refill()
	for {
		head := tb.q.Peek()
		if head == nil {
			return
		}
		if tb.tokens < float64(head.Size) {
			tb.schedule()
			return
		}
		tb.tokens -= float64(head.Size)
		tb.out(tb.q.Pop())
	}
}

// schedule arms the release timer for when the head packet's tokens arrive.
func (tb *TokenBucket) schedule() {
	head := tb.q.Peek()
	if head == nil {
		return
	}
	if tb.drainT.Pending() && tb.drainT.Time() > tb.eng.Now() {
		return // a timer is already pending; drain will reschedule
	}
	need := float64(head.Size) - tb.tokens
	var wait sim.Time = 1
	if need > 0 && tb.rate > 0 {
		wait = sim.FromFloat(need / tb.rate)
		if wait < 1 {
			wait = 1
		}
	}
	tb.drainT.ArmAfter(wait)
}

// AttachPRL installs a static outbound shaper on the host (the HTB-style
// pre-determined rate limiter): data packets are shaped, ACKs pass. The
// shaper is returned for rate changes and inspection.
func AttachPRL(h *topo.Host, rate units.BitRate) *TokenBucket {
	tb := NewTokenBucket(h.Engine(), rate, h.Transmit)
	h.Filter = func(p *packet.Packet) bool {
		if p.Kind != packet.Data {
			return false
		}
		tb.Submit(p)
		return true
	}
	return tb
}
