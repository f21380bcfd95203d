package topo

import (
	"math/rand"
	"testing"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// lindleyRates are the link rates a script's SetRate ops pick from. 3 Gbps
// makes every serialization time a rounded-up fraction; 0 makes it 0 ns
// (the zero-rate pipe), so same-instant sends plan the same delivery
// instant and the order rule d_{k-1} + 1 decides.
var lindleyRates = []units.BitRate{0, 3 * units.Gbps, 10 * units.Gbps, 100 * units.Gbps}

// lindleyPkt is one send of a script as the FIFO recurrence sees it.
type lindleyPkt struct {
	seq     int64
	size    int
	a, s, d sim.Time // arrival, serialization start, delivery
	ect, ce bool
}

// FuzzPipeLindley checks one FIFO pipe against the textbook recurrence for
// a FIFO served at a known rate (Lindley's), written out here; only the
// serialization time tx = rate.TransmitNanos(size) comes from production
// code. Over the accepted packets, in arrival order,
//
//	s_k = max(a_k, s_{k-1} + tx_{k-1})        serialization start
//	d_k = max(s_k + tx_k + delay, d_{k-1} + 1) delivery (d_{-1} = 0)
//
// and a packet arriving at a_k sees occupancy q(a_k), the bytes of the
// accepted packets with s_j > a_k. It is tail-dropped when
// q + size > limit, and CE-marked when it is ECT and q + size > K. The pipe
// has jitter 0 and the FIFO plain (non-AQM) marking.
//
// limit is 1500 + 250·limitSel bytes, K is 200·ecnSel bytes (0: no
// marking) and the propagation delay 100·delaySel ns; the link starts at
// 10 Gbps. Each three-byte script step (g, z, b) sends one packet g² ns
// after the previous one with a 1+6z byte payload, ECT when b&1. When
// (b>>3)&7 == 7 the link first switches to lindleyRates[b>>6]. When b&2 the
// engine first runs to the midpoint of the gap and Backlog is probed there;
// when b&4 Backlog is probed right after the send. Steps with neither bit
// leave the FIFO undrained until the next send or a delivery.
//
// Every send's drop and CE bit, every delivery's instant and order, the
// FIFO's counters and every probed Backlog must match exactly. At each
// probe and delivery, flights holds one record per accepted, undelivered
// packet, the FIFO counts exactly the last waiting ones (their number and
// bytes) and stores none of them, so a finished run leaves both empty
// without a Backlog call.
func FuzzPipeLindley(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		script := make([]byte, 120)
		rand.New(rand.NewSource(seed)).Read(script)
		f.Add(byte(seed*5), byte(seed*3), byte(seed*20), script)
	}
	f.Fuzz(func(t *testing.T, limitSel, ecnSel, delaySel byte, script []byte) {
		limit, k := 1500+250*int(limitSel), 200*int(ecnSel)
		delay := 100 * sim.Time(delaySel)
		rate := 10 * units.Gbps

		eng := sim.NewEngine()
		var got []*packet.Packet
		var gotAt []sim.Time
		var p *Pipe
		accepted, delivered := 0, 0
		checkFlights := func(where string) {
			t.Helper()
			if n := p.flights.Len(); n != accepted-delivered {
				t.Fatalf("%s: flights holds %d, want %d accepted and undelivered", where, n, accepted-delivered)
			}
			if p.waiting > p.flights.Len() || p.fq.Len() != p.waiting {
				t.Fatalf("%s: FIFO holds %d, waiting %d of %d flights", where, p.fq.Len(), p.waiting, p.flights.Len())
			}
			bytes := 0
			for i := p.flights.Len() - p.waiting; i < p.flights.Len(); i++ {
				bytes += p.flights.At(i).pkt.Size
			}
			if p.fq.Bytes() != bytes {
				t.Fatalf("%s: FIFO counts %d B, its waiting flights %d B", where, p.fq.Bytes(), bytes)
			}
			if c := p.fq.Cap(); c != 0 {
				t.Fatalf("%s: the port FIFO allocated storage for %d packets", where, c)
			}
		}
		sink := receiverFunc(func(pkt *packet.Packet) {
			delivered++
			got = append(got, pkt)
			gotAt = append(gotAt, eng.Now())
			checkFlights("delivery")
		})
		p = NewPipe(eng, rate, delay, limit, k, sink)

		var acc []lindleyPkt
		queued := func(at sim.Time) (q int) {
			for _, x := range acc {
				if x.s > at {
					q += x.size
				}
			}
			return q
		}
		probe := func(where string) {
			t.Helper()
			if got, want := p.Backlog(), queued(eng.Now()); got != want {
				t.Fatalf("%s: Backlog() at %v = %d, recurrence %d", where, eng.Now(), got, want)
			}
			checkFlights(where)
		}

		var now, free, lastD sim.Time
		var drops, marks, maxBytes, txBytes int
		for i := 0; i+3 <= len(script); i += 3 {
			g, z, b := script[i], script[i+1], script[i+2]
			gap := sim.Time(g) * sim.Time(g)
			if b&2 != 0 {
				eng.RunUntil(now + gap/2)
				probe("mid-gap probe")
			}
			now += gap
			eng.RunUntil(now)
			if (b>>3)&7 == 7 {
				rate = lindleyRates[b>>6]
				p.SetRate(rate)
			}
			x := lindleyPkt{seq: int64(i / 3), size: 1 + 6*int(z) + packet.HeaderBytes, a: now, ect: b&1 != 0}
			q := queued(now)
			drop := q+x.size > limit

			pkt := packet.NewData(0, 1, 1, x.seq, x.size-packet.HeaderBytes)
			pkt.EcnCapable = x.ect
			before := p.fq.Dropped
			p.Send(pkt) // a dropped pkt is back in the pool: not read again
			if gotDrop := p.fq.Dropped != before; gotDrop != drop {
				t.Fatalf("send %d at %v (%d B onto %d queued, limit %d): dropped %v, recurrence %v", x.seq, now, x.size, q, limit, gotDrop, drop)
			}
			if drop {
				drops++
			} else {
				tx := sim.Time(rate.TransmitNanos(x.size))
				x.s = max(now, free)
				free = x.s + tx
				x.d = max(free+delay, lastD+1)
				lastD = x.d
				x.ce = k > 0 && x.ect && q+x.size > k
				if x.ce {
					marks++
				}
				maxBytes = max(maxBytes, q+x.size)
				txBytes += x.size
				acc = append(acc, x)
				accepted++
			}
			if b&4 != 0 {
				probe("post-send probe")
			}
		}
		eng.Run()

		if len(got) != len(acc) {
			t.Fatalf("delivered %d packets, recurrence accepted %d", len(got), len(acc))
		}
		for i, x := range acc {
			pkt := got[i]
			if pkt.Seq != x.seq || gotAt[i] != x.d || pkt.CE != x.ce || pkt.QueueDelay != x.s-x.a {
				t.Fatalf("delivery %d: seq %d at %v CE %v queued %v; recurrence seq %d at %v CE %v queued %v",
					i, pkt.Seq, gotAt[i], pkt.CE, pkt.QueueDelay, x.seq, x.d, x.ce, x.s-x.a)
			}
		}
		st := p.fq.Stats()
		if st.Enqueued != uint64(accepted) || st.Dropped != uint64(drops) || st.Marked != uint64(marks) || st.MaxBytes != maxBytes {
			t.Fatalf("FIFO counters %+v; recurrence enqueued %d dropped %d marked %d max %d B", st, accepted, drops, marks, maxBytes)
		}
		if p.TxPackets != uint64(accepted) || p.TxBytes != uint64(txBytes) {
			t.Fatalf("wire counters %d pkts / %d B; recurrence %d / %d", p.TxPackets, p.TxBytes, accepted, txBytes)
		}
		// Drained by deliveries alone: no Backlog call since the last send.
		if st.Bytes != 0 || st.Packets != 0 || p.flights.Len() != 0 || p.waiting != 0 {
			t.Fatalf("after the last delivery the FIFO holds %d B / %d pkts and flights %d (%d waiting)", st.Bytes, st.Packets, p.flights.Len(), p.waiting)
		}
	})
}

// receiverFunc adapts a function to Receiver.
type receiverFunc func(*packet.Packet)

func (f receiverFunc) Receive(p *packet.Packet) { f(p) }
