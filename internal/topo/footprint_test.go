package topo

import (
	"strconv"
	"testing"
	"unsafe"

	"aqueue/internal/packet"
	"aqueue/internal/queue"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// TestPacketPathFootprint pins what a packet in flight costs: one 128-byte
// Packet (two cache lines), one 24-byte flights record, and a port FIFO
// that fits the 96-byte size class and stores no packet — the pipe holds
// each packet once. The sizes are exact on a 64-bit machine; a 32-bit one
// must stay within them.
func TestPacketPathFootprint(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
		exact     bool
	}{
		{"packet.Packet", unsafe.Sizeof(packet.Packet{}), 128, true},
		{"flight", unsafe.Sizeof(flight{}), 24, true},
		{"queue.FIFO", unsafe.Sizeof(queue.FIFO{}), 96, false},
	} {
		if c.got > c.want || (c.exact && strconv.IntSize == 64 && c.got != c.want) {
			t.Errorf("unsafe.Sizeof(%s) = %d B, want %d B", c.name, c.got, c.want)
		}
	}

	// A burst into a 1 Gbps port with room for ten MSS packets: ten queue
	// behind the first, the rest tail-drop, and the FIFO only counts them.
	eng := sim.NewEngine()
	pool := packet.PoolFor(eng)
	p := NewPipe(eng, units.Gbps, sim.Microsecond, 10*packet.MaxDataBytes, 0, receiverFunc(pool.Release))
	for i := 0; i < 32; i++ {
		p.Send(pool.NewData(0, 1, 1, int64(i)*packet.DefaultMSS, packet.DefaultMSS))
	}
	q := p.Queue()
	if q.Len() != 10 || q.Dropped != 21 || p.InFlight() != 11 {
		t.Fatalf("after the burst: FIFO counts %d, dropped %d, pipe holds %d; want 10, 21, 11", q.Len(), q.Dropped, p.InFlight())
	}
	if q.Cap() != 0 || q.Peek() != nil {
		t.Fatalf("the port FIFO stores packets: capacity %d, head %v", q.Cap(), q.Peek())
	}
	eng.Run()
	if q.Len() != 0 || q.Bytes() != 0 || p.InFlight() != 0 || q.Cap() != 0 {
		t.Fatalf("after the drain: FIFO counts %d / %d B (capacity %d), pipe holds %d", q.Len(), q.Bytes(), q.Cap(), p.InFlight())
	}
	if st := pool.Stats(); st.Gets != 32 || st.Releases != 32 {
		t.Fatalf("pool %+v, want 32 gets and 32 releases", st)
	}
}
