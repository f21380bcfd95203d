// Package trace provides a bounded in-memory event ring for simulation
// runs, whose tail the daemon's "trace" verb serves. Ring.Host and
// Ring.Switch wire it onto the packet path's hooks (Host.TxHook and RxHook,
// Switch.AQHook), so the event format and its location labels live here
// alone; a detached component pays one nil check per hook.
package trace

import (
	"fmt"
	"strconv"
	"strings"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
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

// MarshalText encodes the kind by name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one recorded occurrence. Its JSON form is the daemon's "trace"
// reply.
type Event struct {
	At    sim.Time      `json:"at_ns"`
	Kind  Kind          `json:"kind"`
	Flow  packet.FlowID `json:"flow,omitempty"`
	Src   packet.HostID `json:"src"`
	Dst   packet.HostID `json:"dst"`
	Seq   int64         `json:"seq,omitempty"`
	Size  int           `json:"size,omitempty"`
	Where string        `json:"where,omitempty"`
}

// Ring is a bounded event buffer: when full, the oldest events are
// overwritten, so attaching it to a long run keeps the tail. Ring.Host and
// Ring.Switch attach it to the packet path's hooks.
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

// Host records a Send event for every packet the host sends and a Recv
// event for every packet delivered to it, labelled "host:<id>", by setting
// its TxHook and RxHook; nil them to detach.
func (r *Ring) Host(h *topo.Host) {
	where := "host:" + strconv.Itoa(int(h.ID()))
	eng := h.Engine()
	h.TxHook = func(p *packet.Packet) { r.Record(FromPacket(eng.Now(), Send, p, where)) }
	h.RxHook = func(p *packet.Packet) { r.Record(FromPacket(eng.Now(), Recv, p, where)) }
}

// Switch records an AQMark or AQDrop event for every packet an AQ of the
// switch marks or drops, labelled "<name>:ingress" or "<name>:egress", by
// setting its AQHook; nil it to detach.
func (r *Ring) Switch(s *topo.Switch) {
	ingress, egress := s.Name()+":ingress", s.Name()+":egress"
	eng := s.Engine()
	s.AQHook = func(t *core.Table, v core.Verdict, p *packet.Packet) {
		kind, where := AQMark, ingress
		if v == core.Drop {
			kind = AQDrop
		}
		if t == s.Egress {
			where = egress
		}
		r.Record(FromPacket(eng.Now(), kind, p, where))
	}
}
