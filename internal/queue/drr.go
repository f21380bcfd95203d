package queue

import (
	"aqueue/internal/packet"
	"aqueue/internal/ring"
	"aqueue/internal/sim"
)

// Interface is the behaviour a switch-port scheduler must provide; FIFO
// (the paper's physical queue) and DRR (the per-flow-queue alternative of
// §7's related work) both implement it.
type Interface interface {
	// Push enqueues at time now; false reports a drop (ownership stays
	// with the caller).
	Push(now sim.Time, p *packet.Packet) bool
	// Pop dequeues the next scheduled packet, or nil.
	Pop() *packet.Packet
	// Peek returns the next packet without dequeuing.
	Peek() *packet.Packet
	// Bytes is the total queued bytes.
	Bytes() int
	// Len is the total queued packets.
	Len() int
}

var _ Interface = (*FIFO)(nil)
var _ Interface = (*DRR)(nil)

// Classifier maps a packet to a service-class key (an entity, a flow, ...).
type Classifier func(*packet.Packet) uint64

// DRR is a deficit-round-robin fair scheduler over a fixed number of
// hardware queues [54]: packets are classified to a class, classes are
// hashed onto the available queues, and the queues are served round-robin
// with a per-visit quantum. It models the "per-flow queue" alternative the
// paper's related work discusses: fair as long as the number of traffic
// constituents does not exceed the number of physical queues — and hash-
// collided beyond that, which is exactly AQ's scaling argument.
type DRR struct {
	queues   []drrQueue
	quantum  int
	perQ     int // byte limit per queue
	classify Classifier
	bytes    int
	count    int
	next     int  // round-robin position
	charged  bool // whether the current queue received its quantum this visit

	// Dropped counts per-queue tail drops.
	Dropped uint64
}

type drrQueue struct {
	fifo    ring.Buffer[*packet.Packet]
	bytes   int
	deficit int
}

// NewDRR builds a scheduler with n hardware queues of perQueueLimit bytes
// each, serving quantum bytes per visit. classify assigns packets to
// classes; nil classifies by flow ID.
func NewDRR(n, quantum, perQueueLimit int, classify Classifier) *DRR {
	if n < 1 {
		n = 1
	}
	if quantum <= 0 {
		quantum = packet.MaxDataBytes
	}
	if classify == nil {
		classify = func(p *packet.Packet) uint64 { return uint64(p.Flow) }
	}
	return &DRR{
		queues:   make([]drrQueue, n),
		quantum:  quantum,
		perQ:     perQueueLimit,
		classify: classify,
	}
}

// Push implements Interface.
func (d *DRR) Push(now sim.Time, p *packet.Packet) bool {
	q := &d.queues[d.classify(p)%uint64(len(d.queues))]
	if d.perQ > 0 && q.bytes+p.Size > d.perQ {
		d.Dropped++
		return false
	}
	p.EnqueuedAt = now
	q.fifo.Push(p)
	q.bytes += p.Size
	d.bytes += p.Size
	d.count++
	return true
}

// Pop implements Interface: serve the current queue while its deficit
// covers its head packet; otherwise recharge the next non-empty queue.
func (d *DRR) Pop() *packet.Packet {
	if d.count == 0 {
		return nil
	}
	n := len(d.queues)
	advance := func() {
		d.next = (d.next + 1) % n
		d.charged = false
	}
	// Deficits grow by one quantum per visit, so the scheduler is
	// guaranteed to serve within ceil(maxPacket/quantum) full rounds; the
	// bound below is a defensive cap far above that.
	for scanned := 0; scanned < 64*n+64; scanned++ {
		q := &d.queues[d.next]
		head, ok := q.fifo.Peek()
		if !ok {
			q.deficit = 0
			advance()
			continue
		}
		if !d.charged {
			// One quantum per round-robin visit (classic DRR).
			q.deficit += d.quantum
			d.charged = true
		}
		if q.deficit >= head.Size {
			q.deficit -= head.Size
			q.fifo.Pop()
			q.bytes -= head.Size
			d.bytes -= head.Size
			d.count--
			return head
		}
		advance()
	}
	return nil
}

// Peek implements Interface (the next packet the scheduler would serve).
func (d *DRR) Peek() *packet.Packet {
	if d.count == 0 {
		return nil
	}
	// Peek must not mutate scheduler state; report the head of the next
	// non-empty queue in round-robin order.
	n := len(d.queues)
	for i := 0; i < n; i++ {
		if head, ok := d.queues[(d.next+i)%n].fifo.Peek(); ok {
			return head
		}
	}
	return nil
}

// Bytes implements Interface.
func (d *DRR) Bytes() int { return d.bytes }

// Len implements Interface.
func (d *DRR) Len() int { return d.count }
