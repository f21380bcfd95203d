// Package trace provides lightweight observability for simulation runs:
// a bounded in-memory event ring the harness can attach to hosts, switches
// and AQs, and whose tail the daemon's "trace" verb serves. It is the
// debugging substrate the repository's own development used; experiments
// keep it detached unless asked, so the hot path stays allocation-free.
package trace

import (
	"fmt"
	"strings"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds.
const (
	Send Kind = iota
	Recv
	AQDrop
	AQMark
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Send:
		return "send"
	case Recv:
		return "recv"
	case AQDrop:
		return "aq-drop"
	case AQMark:
		return "aq-mark"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded occurrence.
type Event struct {
	At    sim.Time
	Kind  Kind
	Flow  packet.FlowID
	Src   packet.HostID
	Dst   packet.HostID
	Seq   int64
	Size  int
	Where string
}

// Ring is a bounded event buffer: when full, the oldest events are
// overwritten, so attaching it to a long run keeps the tail. Hosts,
// switches and AQ tables accept a Ring via their SetTrace methods and
// record into it on the hot path behind a nil check, so detached
// components pay one branch per packet and nothing else.
type Ring struct {
	buf     []Event
	next    int
	wrapped bool

	// Recorded counts all events ever offered, including overwritten ones.
	Recorded uint64
}

// NewRing returns a ring holding up to n events.
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1024
	}
	return &Ring{buf: make([]Event, n)}
}

// Record records an event.
func (r *Ring) Record(e Event) {
	r.buf[r.next] = e
	r.next++
	r.Recorded++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r.wrapped {
		return len(r.buf)
	}
	return r.next
}

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event { return r.Tail(r.Len()) }

// Tail returns the newest min(n, Len()) events oldest-first, copying only
// those; it returns nil when n <= 0 or the ring is empty.
func (r *Ring) Tail(n int) []Event {
	n = min(n, r.Len())
	if n <= 0 {
		return nil
	}
	out := make([]Event, n)
	// The newest event sits just before next, so the tail starts n slots
	// back, wrapping to the end of buf when that is before its start.
	if start := r.next - n; start >= 0 {
		copy(out, r.buf[start:r.next])
	} else {
		k := copy(out, r.buf[len(r.buf)+start:])
		copy(out[k:], r.buf[:r.next])
	}
	return out
}

// String summarizes the ring.
func (r *Ring) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace.Ring{%d retained, %d recorded}", r.Len(), r.Recorded)
	return b.String()
}

// FromPacket builds an event from a packet at a location.
func FromPacket(at sim.Time, k Kind, p *packet.Packet, where string) Event {
	return Event{
		At: at, Kind: k, Flow: p.Flow, Src: p.Src, Dst: p.Dst,
		Seq: p.Seq, Size: p.Size, Where: where,
	}
}
