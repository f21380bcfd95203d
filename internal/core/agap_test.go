package core

import (
	"math"
	"testing"
	"testing/quick"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

func TestUpdateRecurrence(t *testing.T) {
	// R = 1 Gbps = 0.125 bytes/ns. Walk the recurrence by hand.
	aq := New(Config{ID: 1, Rate: 1 * units.Gbps})
	// First packet at t=0: gap = 0 + 1000.
	if got := aq.Update(0, 1000); got != 1000 {
		t.Fatalf("gap after first packet = %v, want 1000", got)
	}
	// Second packet 4000ns later: drain 4000*0.125 = 500 -> 500 + 1000.
	if got := aq.Update(4000, 1000); got != 1500 {
		t.Fatalf("gap = %v, want 1500", got)
	}
	// Third packet 100000ns later: drain 12500 >> 1500 -> clamp 0 + 1000.
	if got := aq.Update(104000, 1000); got != 1000 {
		t.Fatalf("gap = %v, want 1000 (clamped)", got)
	}
}

func TestUpdateNeverNegativeBeforeAdd(t *testing.T) {
	// Property (Expression 7): A(t) >= size of the arriving packet, i.e.
	// the pre-add value is clamped at zero.
	f := func(gaps []uint32, sizes []uint16) bool {
		aq := New(Config{ID: 1, Rate: 10 * units.Gbps, Limit: math.MaxInt32})
		now := sim.Time(0)
		n := len(gaps)
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			now += sim.Time(gaps[i])
			size := int(sizes[i]%1500) + 1
			g := aq.Update(now, size)
			if g < float64(size)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAGapBoundsRateOverInterval(t *testing.T) {
	// §3.2.2: with limit L, the bytes admitted over any backlogged interval
	// [t0, t1] are at most (t1-t0)·R + L. Send a greedy on-off stream far
	// above R and check the bound on admitted bytes.
	const limit = 50000
	rate := 2 * units.Gbps // 0.25 B/ns
	aq := New(Config{ID: 1, Rate: rate, Limit: limit})
	now := sim.Time(0)
	admitted := 0
	start := now
	for i := 0; i < 200000; i++ {
		p := packet.NewData(1, 2, 1, 0, 960)
		if aq.Process(now, p) == Pass {
			admitted += p.Size
		}
		now += 100 // 10x the allocated rate
	}
	elapsed := float64(now - start)
	bound := elapsed*rate.BytesPerNano() + limit
	if float64(admitted) > bound+1 {
		t.Fatalf("admitted %d bytes, bound %v", admitted, bound)
	}
	// And it should be close to the bound (the limiter is not overly
	// conservative): at least 95%% of elapsed·R.
	if float64(admitted) < 0.95*elapsed*rate.BytesPerNano() {
		t.Fatalf("admitted %d bytes, under-utilizes allocation %v",
			admitted, elapsed*rate.BytesPerNano())
	}
}

func TestProcessDropRestoresGap(t *testing.T) {
	// Algorithm 2 lines 2-4: a dropped packet's size is removed from the
	// gap so dropped traffic doesn't count against the entity.
	aq := New(Config{ID: 1, Rate: 1 * units.Gbps, Limit: 2000})
	p1 := packet.NewData(1, 2, 1, 0, 1960) // size 2000
	if aq.Process(0, p1) != Pass {
		t.Fatal("first packet at the limit should pass")
	}
	gapBefore := aq.Gap()
	p2 := packet.NewData(1, 2, 1, 0, 960) // size 1000, pushes beyond limit
	if aq.Process(0, p2) != Drop {
		t.Fatal("packet beyond the limit should drop")
	}
	if aq.Gap() != gapBefore {
		t.Fatalf("gap after drop = %v, want %v", aq.Gap(), gapBefore)
	}
	if st := aq.Stats(); st.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", st.Drops)
	}
}

func TestProcessECNMarking(t *testing.T) {
	aq := New(Config{ID: 1, Rate: 1 * units.Gbps, Limit: 100000, CC: ECNType, ECNThreshold: 3000})
	mk := func() *packet.Packet {
		p := packet.NewData(1, 2, 1, 0, 960)
		p.EcnCapable = true
		return p
	}
	// Three back-to-back packets: gap 1000, 2000, 3000 — no marks yet.
	for i := 0; i < 3; i++ {
		p := mk()
		if aq.Process(0, p) != Pass || p.CE {
			t.Fatalf("packet %d should pass unmarked (gap %v)", i, aq.Gap())
		}
	}
	// Fourth: gap 4000 > 3000 — marked, and the verdict says so.
	p := mk()
	if aq.Process(0, p) != Mark || !p.CE {
		t.Fatal("packet above virtual ECN threshold should be marked")
	}
	if st := aq.Stats(); st.Marks != 1 {
		t.Fatalf("Marks = %d, want 1", st.Marks)
	}
	// Non-ECN-capable traffic is never marked.
	q := packet.NewData(1, 2, 1, 0, 960)
	if aq.Process(0, q) != Pass || q.CE {
		t.Fatal("non-ECN-capable packet was marked")
	}
}

func TestProcessVirtualDelay(t *testing.T) {
	// R = 1 Gbps = 0.125 B/ns; a gap of 1000 B drains in 8000 ns.
	aq := New(Config{ID: 1, Rate: 1 * units.Gbps, Limit: 100000})
	p := packet.NewData(1, 2, 1, 0, 960) // size 1000
	aq.Process(0, p)
	if p.VirtualDelay != 8000 {
		t.Fatalf("virtual delay = %v, want 8000ns", p.VirtualDelay)
	}
	// A second hop accumulates.
	aq2 := New(Config{ID: 2, Rate: 1 * units.Gbps, Limit: 100000})
	aq2.Process(0, p)
	if p.VirtualDelay != 16000 {
		t.Fatalf("accumulated virtual delay = %v, want 16000ns", p.VirtualDelay)
	}
	if aq.VirtualDelay() != 8000 {
		t.Fatalf("VirtualDelay() = %v, want 8000", aq.VirtualDelay())
	}
}

func TestAGapEqualsQueueLengthWhenRateIsLineRate(t *testing.T) {
	// §3.2: "The A-Gap equals the physical queue length when the allocated
	// rate R is the link capacity." Feed the same arrival sequence to an
	// AQ at R=line rate and to a fluid queue draining at line rate.
	rate := 10 * units.Gbps
	aq := New(Config{ID: 1, Rate: rate, Limit: math.MaxInt32})
	r := sim.NewRand(5)
	qlen := 0.0 // fluid queue in bytes
	last := sim.Time(0)
	for i := 0; i < 5000; i++ {
		now := last + sim.Time(r.Intn(2000))
		size := 100 + r.Intn(1400)
		qlen -= float64(now-last) * rate.BytesPerNano()
		if qlen < 0 {
			qlen = 0
		}
		qlen += float64(size)
		got := aq.Update(now, size)
		if math.Abs(got-qlen) > 1e-6 {
			t.Fatalf("step %d: A-Gap %v != fluid queue %v", i, got, qlen)
		}
		last = now
	}
}

func TestSetRatePreservesGap(t *testing.T) {
	aq := New(Config{ID: 1, Rate: 1 * units.Gbps})
	aq.Update(0, 5000)
	aq.SetRate(2 * units.Gbps)
	if aq.Gap() != 5000 {
		t.Fatalf("gap after SetRate = %v, want 5000", aq.Gap())
	}
	if aq.Rate() != 2*units.Gbps {
		t.Fatalf("rate = %v, want 2Gbps", aq.Rate())
	}
	// Drain now happens at the new rate: 2 Gbps = 0.25 B/ns.
	got := aq.Update(4000, 0)
	if got != 4000 { // 5000 - 4000*0.25
		t.Fatalf("gap after drain at new rate = %v, want 4000", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	aq := New(Config{ID: 1, Rate: units.Gbps})
	if aq.Limit() != DefaultLimit {
		t.Fatalf("default limit = %d, want %d", aq.Limit(), DefaultLimit)
	}
}

func TestCCTypeString(t *testing.T) {
	if DropType.String() != "drop" || ECNType.String() != "ecn" || DelayType.String() != "delay" {
		t.Fatal("CCType String mismatch")
	}
	if CCType(99).String() != "CCType(99)" {
		t.Fatal("unknown CCType String mismatch")
	}
}

// TestZeroRateAQProcess states what an AQ of rate 0 does to packets today
// (ROADMAP 1(d)): nothing drains its gap, so the gap is the sum of the
// bytes it passed, however long the AQ idles; it stamps no virtual delay,
// because gap/R is skipped for R = 0; and once the gap reaches the limit
// every later packet is dropped, with the drop restoring the gap, for good.
func TestZeroRateAQProcess(t *testing.T) {
	const size, limit = 1000, 5 * 1000
	aq := New(Config{ID: 1, Rate: 0, Limit: limit})
	for i := 0; i < 8; i++ {
		now := sim.Time(i) * sim.Second // idle a second between packets
		p := packet.NewData(1, 2, 1, 0, size-packet.HeaderBytes)
		v := aq.Process(now, p)
		passed := min(i+1, limit/size)
		want := Pass
		if i >= limit/size {
			want = Drop
		}
		if v != want || aq.Gap() != float64(passed*size) {
			t.Fatalf("packet %d at %v: verdict %v gap %v, want %v and %d", i, now, v, aq.Gap(), want, passed*size)
		}
		if p.VirtualDelay != 0 || aq.VirtualDelay() != 0 {
			t.Fatalf("packet %d: stamped %v, AQ reports %v; want no virtual delay", i, p.VirtualDelay, aq.VirtualDelay())
		}
	}
	if s := aq.Stats(); s.Arrived != 8 || s.Drops != 3 {
		t.Fatalf("stats %+v, want 8 arrived and 3 dropped", s)
	}
}
