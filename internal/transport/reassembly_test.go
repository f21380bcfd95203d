package transport

import (
	"math/rand"
	"testing"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
)

// mapReceiver is the reassembly the receiver's segment ring replaced, kept
// as it was written: out-of-order segments in a seq → payload map. handle
// reports whether the segment is acknowledged and, if so, the cumulative
// ACK it carries.
type mapReceiver struct {
	cum int64
	ooo map[int64]int // out-of-order segments: seq -> payload
}

func (r *mapReceiver) handle(seq int64, payload int) (ack int64, sent bool) {
	if seq+int64(payload) <= r.cum {
		return 0, false
	}
	switch {
	case seq == r.cum:
		r.cum += int64(payload)
		for {
			pl, ok := r.ooo[r.cum]
			if !ok {
				break
			}
			delete(r.ooo, r.cum)
			r.cum += int64(pl)
		}
	case seq > r.cum:
		r.ooo[seq] = payload
	}
	return r.cum, true
}

// reassemblyMSS are the segment sizes FuzzReassembly picks from: the
// default, a common Ethernet MSS that does not divide the receive window,
// and a small one whose window spans tens of thousands of segments.
var reassemblyMSS = [...]int{packet.DefaultMSS, 1460, 64}

// reassemblyRig is a real Receiver on a host whose outbound ACKs are
// captured instead of transmitted.
type reassemblyRig struct {
	src, dst *topo.Host
	pool     *packet.Pool
	r        *Receiver
	acks     []ackRec
}

type ackRec struct{ ack, echo int64 }

func newReassemblyRig(size int64, mss int) *reassemblyRig {
	eng := sim.NewEngine()
	g := &reassemblyRig{src: topo.NewHost(eng, 1), dst: topo.NewHost(eng, 2), pool: packet.PoolFor(eng)}
	g.dst.Filter = func(p *packet.Packet) bool {
		g.acks = append(g.acks, ackRec{p.Ack, p.EchoSeq})
		g.pool.Release(p)
		return true
	}
	g.r = newReceiver(g.dst, g.src.ID(), size, mss)
	return g
}

func (g *reassemblyRig) deliver(seq int64, payload int) {
	p := g.pool.NewData(g.src.ID(), g.dst.ID(), 1, seq, payload)
	g.r.Handle(p)
	g.pool.Release(p)
}

// FuzzReassembly drives scripted arrival orders of one flow's segments
// through a real Receiver and through mapReceiver, and after every arrival
// requires the same cumulative point and the same ACK stream (Ack and
// EchoSeq, or silence). The flow is long-lived when segs is 0, else segs
// segments (at most 4096) whose last one is tail%mss bytes short. Each
// three-byte script step is an op and a 16-bit argument v:
//
//	0  the segment at the cumulative point (in order)
//	1  a segment 1+v%(window-1) segments past it, up to rwndBytes ahead
//	2  a duplicate 1+v%64 segments behind it
//	3  a retransmission of an earlier arrival
//	4  the next 2+v%63 segments in a permutation seeded by v
//
// and the script ends by delivering in order until nothing is held (and a
// sized flow is complete), so the ring slides across every slot it used.
func FuzzReassembly(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		script := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(script)
		f.Add(byte(seed), uint16(seed*37), uint16(seed*11), script)
	}
	f.Fuzz(func(t *testing.T, mssSel byte, segs, tail uint16, script []byte) {
		mss := reassemblyMSS[int(mssSel)%len(reassemblyMSS)]
		m := int64(mss)
		var size, n int64 // n == 0: long-lived
		if segs > 0 {
			n = 1 + int64(segs-1)%4096
			size = n*m - int64(tail)%m
		}
		payload := func(k int64) int {
			if size != 0 && size-k*m < m {
				return int(size - k*m)
			}
			return mss
		}
		g := newReassemblyRig(size, mss)
		ref := &mapReceiver{ooo: make(map[int64]int)}
		var hist []int64
		step := 0
		arrive := func(k int64) {
			if k < 0 || (n != 0 && k >= n) {
				return
			}
			step++
			seq, pl := k*m, payload(k)
			hist = append(hist, k)
			before := len(g.acks)
			g.deliver(seq, pl)
			ack, sent := ref.handle(seq, pl)
			if g.r.Delivered() != ref.cum {
				t.Fatalf("step %d (seq %d): delivered %d, reference %d", step, seq, g.r.Delivered(), ref.cum)
			}
			got := g.acks[before:]
			switch {
			case !sent && len(got) != 0:
				t.Fatalf("step %d (seq %d): acked %+v, reference stays silent", step, seq, got)
			case sent && (len(got) != 1 || got[0] != ackRec{ack, seq}):
				t.Fatalf("step %d (seq %d): acks %+v, reference acks %d echoing %d", step, seq, got, ack, seq)
			}
		}
		window := int64(rwndBytes / mss)
		for i := 0; i+2 < len(script); i += 3 {
			v := int64(script[i+1]) | int64(script[i+2])<<8
			cumSeg := ref.cum / m
			switch script[i] % 5 {
			case 0:
				arrive(cumSeg)
			case 1:
				arrive(cumSeg + 1 + v%(window-1))
			case 2:
				arrive(cumSeg - 1 - v%64)
			case 3:
				if len(hist) > 0 {
					arrive(hist[v%int64(len(hist))])
				}
			case 4:
				w := 2 + v%63
				order := rand.New(rand.NewSource(v)).Perm(int(w))
				for _, j := range order {
					arrive(cumSeg + int64(j))
				}
			}
		}
		for len(ref.ooo) > 0 || (n != 0 && ref.cum < size) {
			arrive(ref.cum / m)
		}
	})
}

// receiverSink keeps newReceiver's result on the heap under AllocsPerRun.
var receiverSink *Receiver

// TestReceiverAllocs pins the receiver's footprint: building one allocates
// only the Receiver (the segment ring stays empty until a segment arrives
// out of order), and in-order arrival allocates nothing.
func TestReceiverAllocs(t *testing.T) {
	g := newReassemblyRig(0, packet.DefaultMSS)
	if n := testing.AllocsPerRun(100, func() {
		receiverSink = newReceiver(g.dst, g.src.ID(), 0, packet.DefaultMSS)
	}); n != 1 {
		t.Fatalf("newReceiver: %v allocs, want 1 (the Receiver)", n)
	}
	g.acks = make([]ackRec, 0, 2048)
	var seq int64
	if n := testing.AllocsPerRun(1000, func() {
		g.deliver(seq, packet.DefaultMSS)
		seq += packet.DefaultMSS
	}); n != 0 {
		t.Fatalf("in-order arrival: %v allocs per segment, want 0", n)
	}
	if g.r.cum != seq || len(g.r.held.buf) != 0 {
		t.Fatalf("cum %d after %d in-order bytes, ring %d slots; want %d and 0", g.r.cum, seq, len(g.r.held.buf), seq)
	}
}
