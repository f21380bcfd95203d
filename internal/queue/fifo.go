// Package queue implements the physical FIFO queue of a switch port: a
// byte-limited tail-drop buffer with an optional ECN marking threshold.
//
// This is the "physical queue" (PQ) of the paper's §2 — the baseline whose
// limitations AQ addresses. Packets are marked with CE at enqueue time when
// the instantaneous queue length exceeds the ECN threshold, which is the
// DCTCP-style marking the paper assumes.
package queue

import (
	"aqueue/internal/packet"
	"aqueue/internal/ring"
	"aqueue/internal/sim"
)

// FIFO is a byte-limited tail-drop FIFO with optional ECN marking.
// The zero value is not usable; use New.
//
// A FIFO has one of two uses and never mixes them. A storing FIFO
// holds its packets: Push, Pop and Peek, as a token bucket's shaping queue
// does. A counting FIFO holds only their number and bytes: Admit and
// PopDrainedN, as a pipe's egress port does, whose packets the pipe
// already holds in its own in-flight records. Admission — tail drop, ECN
// marking and the RED ramp — reads queued bytes alone, so both uses decide
// every packet the same way. The ring is allocated by the first Push, so a
// counting FIFO never holds storage.
type FIFO struct {
	limit int // bytes; <=0 means unlimited
	ecnKB int // ECN marking threshold in bytes; <=0 disables marking
	bytes int
	n     int                          // queued packets, stored or counted
	store *ring.Buffer[*packet.Packet] // nil until the first Push

	// AQMDropNonECT selects NS3/RED-style AQM semantics: above the ECN
	// threshold, ECN-capable packets are marked while everything else is
	// dropped with a probability that ramps linearly from 0 at the
	// threshold to 1 at twice the threshold. The probabilistic ramp
	// desynchronizes competing loss-based flows, exactly as RED does. The
	// paper's simulation platform behaves this way (which is why DCTCP
	// dominates loss-based CC in a shared queue there), while its Tofino
	// testbed is a plain tail-drop queue with marking (which is why
	// loss-based CC builds deep queues in Table 4).
	AQMDropNonECT bool
	rng           *sim.Rand

	// Stats counters.
	Enqueued uint64
	Dropped  uint64
	Marked   uint64
	MaxBytes int
}

// FIFOStats is a snapshot of the queue's counters and occupancy, following
// the repo-wide stats convention (value type, no locks held).
type FIFOStats struct {
	Enqueued uint64 `json:"enqueued"`
	Dropped  uint64 `json:"dropped"`
	Marked   uint64 `json:"marked"`
	MaxBytes int    `json:"max_bytes"`
	Bytes    int    `json:"bytes"`
	Packets  int    `json:"packets"`
}

// Stats returns a snapshot of the queue counters and current occupancy.
func (q *FIFO) Stats() FIFOStats {
	return FIFOStats{
		Enqueued: q.Enqueued,
		Dropped:  q.Dropped,
		Marked:   q.Marked,
		MaxBytes: q.MaxBytes,
		Bytes:    q.bytes,
		Packets:  q.n,
	}
}

// New returns a FIFO with the given byte limit and ECN threshold (both in
// bytes). limit <= 0 means unlimited; ecnThreshold <= 0 disables marking.
// The AQM random stream starts from a fixed seed; owners that build many
// queues derive distinct per-queue seeds from their engine and install
// them with SetAQMSeed (process globals would make runs depend on what
// else ran before or concurrently in the process).
func New(limit, ecnThreshold int) *FIFO {
	return &FIFO{limit: limit, ecnKB: ecnThreshold, rng: sim.NewRand(0xA11CE)}
}

// SetAQMSeed reseeds the AQM drop/mark random stream. Call before any
// traffic flows through the queue.
func (q *FIFO) SetAQMSeed(seed uint64) { q.rng = sim.NewRand(seed) }

// Len returns the number of queued packets.
func (q *FIFO) Len() int { return q.n }

// Cap returns the number of packets the FIFO's storage holds before it
// grows: 0 for a counting FIFO, which never allocates any.
func (q *FIFO) Cap() int {
	if q.store == nil {
		return 0
	}
	return q.store.Cap()
}

// Bytes returns the queued bytes.
func (q *FIFO) Bytes() int { return q.bytes }

// Admit decides whether p joins the queue at time now and, when it does,
// counts it: its size joins the queued bytes and every counter is
// updated, but the packet itself is not stored. It returns false — and
// does not take ownership of p — when the byte limit would be exceeded
// (tail drop) or the RED ramp drops it. When the post-enqueue occupancy
// exceeds the ECN threshold and the packet is ECN-capable, the CE
// codepoint is set. A counting FIFO's caller keeps the packet and retires
// it with PopDrainedN.
func (q *FIFO) Admit(now sim.Time, p *packet.Packet) bool {
	if q.limit > 0 && q.bytes+p.Size > q.limit {
		q.Dropped++
		return false
	}
	if q.AQMDropNonECT && q.ecnKB > 0 && !p.EcnCapable && q.bytes+p.Size > q.ecnKB {
		// RED-style probabilistic drop for non-ECN-capable traffic: the
		// probability ramps from 0 at the threshold to 1 at twice the
		// threshold. ECN-capable traffic is marked on the same ramp below.
		prob := float64(q.bytes+p.Size-q.ecnKB) / float64(q.ecnKB)
		if prob >= 1 || q.rng.Float64() < prob {
			q.Dropped++
			return false
		}
	}
	p.EnqueuedAt = now
	q.bytes += p.Size
	q.n++
	q.Enqueued++
	if q.bytes > q.MaxBytes {
		q.MaxBytes = q.bytes
	}
	if q.ecnKB > 0 && q.bytes > q.ecnKB && p.EcnCapable {
		if q.AQMDropNonECT {
			// RED/ECN mode: mark on the same probability ramp the
			// non-ECT traffic is dropped on, so a mark and a drop signal
			// the same congestion level (a mark just costs far less —
			// the asymmetry that lets DCTCP dominate loss-based CC in a
			// shared queue, §2.2).
			prob := float64(q.bytes-q.ecnKB) / float64(q.ecnKB)
			if prob < 1 && q.rng.Float64() >= prob {
				return true
			}
		}
		p.CE = true
		q.Marked++
	}
	return true
}

// Push admits p at time now (see Admit) and stores it for Pop. It returns
// false — and does not take ownership of p — when admission drops it.
func (q *FIFO) Push(now sim.Time, p *packet.Packet) bool {
	if q.store == nil {
		if q.n != 0 {
			panic("queue: Push on a counting FIFO")
		}
		q.store = new(ring.Buffer[*packet.Packet])
	}
	if !q.Admit(now, p) {
		return false
	}
	q.store.Push(p)
	return true
}

// PopDrainedN retires the n oldest counted packets, whose sizes total
// totalSize, from a counting FIFO. A pipe retires its queued packets as
// their serialization starts, from its own in-flight records, so the
// queue never stores or reads them.
func (q *FIFO) PopDrainedN(n, totalSize int) {
	if q.store != nil {
		panic("queue: PopDrainedN on a storing FIFO")
	}
	q.n -= n
	q.bytes -= totalSize
}

// Pop dequeues the head packet of a storing FIFO, or returns nil when
// empty.
func (q *FIFO) Pop() *packet.Packet {
	if q.store == nil {
		return nil
	}
	p, ok := q.store.Pop()
	if ok {
		q.bytes -= p.Size
		q.n--
	}
	return p
}

// Peek returns the head packet of a storing FIFO without removing it, or
// nil when empty.
func (q *FIFO) Peek() *packet.Packet {
	if q.store == nil {
		return nil
	}
	p, _ := q.store.Peek()
	return p
}
