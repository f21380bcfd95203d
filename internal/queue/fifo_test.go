package queue

import (
	"testing"
	"testing/quick"

	"aqueue/internal/packet"
)

func data(size int) *packet.Packet {
	p := packet.NewData(1, 2, 1, 0, size-packet.HeaderBytes)
	return p
}

func TestFIFOOrder(t *testing.T) {
	q := New(0, 0)
	var pkts []*packet.Packet
	for i := 0; i < 100; i++ {
		p := data(100 + i)
		pkts = append(pkts, p)
		if !q.Push(0, p) {
			t.Fatalf("push %d failed on unlimited queue", i)
		}
	}
	for i := 0; i < 100; i++ {
		if got := q.Pop(); got != pkts[i] {
			t.Fatalf("pop %d returned wrong packet", i)
		}
	}
	if q.Pop() != nil {
		t.Fatal("pop on empty queue returned a packet")
	}
}

func TestFIFOTailDrop(t *testing.T) {
	q := New(1000, 0)
	a := data(600)
	b := data(600)
	if !q.Push(0, a) {
		t.Fatal("first push rejected")
	}
	if q.Push(0, b) {
		t.Fatal("push exceeding limit accepted")
	}
	if q.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", q.Dropped)
	}
	if q.Bytes() != 600 {
		t.Fatalf("Bytes = %d, want 600", q.Bytes())
	}
	// After draining, space frees up.
	q.Pop()
	if !q.Push(0, b) {
		t.Fatal("push after drain rejected")
	}
}

func TestFIFOECNMarking(t *testing.T) {
	q := New(0, 500)
	a := data(400)
	a.EcnCapable = true
	b := data(400)
	b.EcnCapable = true
	c := data(400) // not ECN-capable
	q.Push(0, a)
	if a.CE {
		t.Fatal("marked below threshold")
	}
	q.Push(0, b)
	if !b.CE {
		t.Fatal("not marked above threshold")
	}
	q.Push(0, c)
	if c.CE {
		t.Fatal("non-ECN-capable packet was marked")
	}
	if q.Marked != 1 {
		t.Fatalf("Marked = %d, want 1", q.Marked)
	}
}

func TestFIFOByteAccounting(t *testing.T) {
	// Property: Bytes() always equals the sum of sizes of queued packets,
	// and never exceeds the limit.
	f := func(ops []uint8) bool {
		q := New(5000, 0)
		var queued []int
		sum := 0
		for _, op := range ops {
			if op%3 == 0 && len(queued) > 0 {
				p := q.Pop()
				if p.Size != queued[0] {
					return false
				}
				sum -= queued[0]
				queued = queued[1:]
			} else {
				size := 41 + int(op)
				p := data(size)
				if q.Push(0, p) {
					queued = append(queued, size)
					sum += size
				}
			}
			if q.Bytes() != sum || q.Len() != len(queued) {
				return false
			}
			if q.Bytes() > 5000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPeek(t *testing.T) {
	q := New(0, 0)
	if q.Peek() != nil {
		t.Fatal("peek on empty returned a packet")
	}
	p := data(100)
	q.Push(0, p)
	if q.Peek() != p {
		t.Fatal("peek returned wrong packet")
	}
	if q.Len() != 1 {
		t.Fatal("peek removed the packet")
	}
}

func TestFIFOMaxBytesHighWater(t *testing.T) {
	q := New(0, 0)
	q.Push(0, data(100))
	q.Push(0, data(200))
	q.Pop()
	q.Pop()
	if q.MaxBytes != 300 {
		t.Fatalf("MaxBytes = %d, want 300", q.MaxBytes)
	}
}

func TestFIFOPopDrainedIgnoresRecycledHead(t *testing.T) {
	q := New(0, 0)
	a := data(100)
	b := data(200)
	q.Admit(0, a)
	q.Admit(0, b)
	// The counting contract: the caller keeps the packets and supplies
	// their sizes, and the head object may have been recycled since.
	// PopDrainedN must account with the supplied size, never by reading a
	// packet — a counting FIFO holds none to read.
	a.Size = 9999
	q.PopDrainedN(1, 100)
	if q.Len() != 1 || q.Bytes() != 200 {
		t.Fatalf("after drain: len=%d bytes=%d, want 1/200", q.Len(), q.Bytes())
	}
	if q.Peek() != nil || q.Cap() != 0 {
		t.Fatalf("counting FIFO stores packets: peek %v, cap %d", q.Peek(), q.Cap())
	}
	q.PopDrainedN(1, 200)
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("after full drain: len=%d bytes=%d, want 0/0", q.Len(), q.Bytes())
	}
	if q.Pop() != nil {
		t.Fatal("pop on fully drained queue returned a packet")
	}
	if st := q.Stats(); st.Enqueued != 2 || st.MaxBytes != 300 || st.Packets != 0 {
		t.Fatalf("counters %+v, want 2 enqueued, 300 B high water, 0 packets", st)
	}
}

func TestFIFOPopDrainedInterleavesWithPop(t *testing.T) {
	// A FIFO either stores (Push/Pop/Peek) or counts (Admit/PopDrainedN);
	// the two never mix. Fed the same arrivals and departures, both uses
	// decide every drop and mark alike and agree on every counter, because
	// admission reads queued bytes alone.
	store, count := New(1000, 500), New(1000, 500)
	var counted []int
	sizes := []int{300, 400, 500, 200, 100, 600, 300, 300}
	for i, size := range sizes {
		a, b := data(size), data(size)
		a.EcnCapable, b.EcnCapable = i%2 == 0, i%2 == 0
		okA, okB := store.Push(0, a), count.Admit(0, b)
		if okA != okB || a.CE != b.CE {
			t.Fatalf("packet %d (%d B): store accepted %v CE %v, count accepted %v CE %v", i, size, okA, a.CE, okB, b.CE)
		}
		if okB {
			counted = append(counted, size)
		}
		if i%3 == 2 {
			// One departure from each: the storing FIFO pops its head,
			// the counting one retires the same size by count.
			if got := store.Pop(); got == nil || got.Size != counted[0] {
				t.Fatalf("pop after packet %d returned %v, want %d B", i, got, counted[0])
			}
			count.PopDrainedN(1, counted[0])
			counted = counted[1:]
		}
		if s, c := store.Stats(), count.Stats(); s != c {
			t.Fatalf("after packet %d: storing %+v, counting %+v", i, s, c)
		}
	}
	if count.Pop() != nil || count.Peek() != nil || count.Cap() != 0 {
		t.Fatal("counting FIFO returned or stored a packet")
	}
	if store.Cap() == 0 {
		t.Fatal("storing FIFO allocated no storage")
	}
	mustPanic(t, "PopDrainedN on a storing FIFO", func() { store.PopDrainedN(1, 100) })
	mustPanic(t, "Push on a counting FIFO", func() { count.Push(0, data(100)) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestRingGrowthPreservesOrder(t *testing.T) {
	q := New(0, 0)
	// Interleave pushes and pops so head moves, then force growth.
	for i := 0; i < 8; i++ {
		q.Push(0, data(100))
	}
	for i := 0; i < 5; i++ {
		q.Pop()
	}
	var want []*packet.Packet
	want = append(want, q.Peek())
	for i := 0; i < 40; i++ {
		p := data(50 + i)
		want = append(want, p)
		q.Push(0, p)
	}
	// Drain remaining pre-growth packets first.
	q.Pop() // the peeked one
	q.Pop()
	q.Pop()
	for i := 1; i < len(want); i++ {
		if got := q.Pop(); got != want[i] {
			t.Fatalf("order broken after growth at %d", i)
		}
	}
}
