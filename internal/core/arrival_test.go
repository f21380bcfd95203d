package core

import (
	"math"
	"testing"
	"testing/quick"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// TestFluidPacketEquivalence is the property test binding the two arrival
// forms together: a constant-rate stream pushed through OnFluidEpoch must
// trace the same clamped A-Gap trajectory as the equivalent back-to-back
// packet arrivals, to within one epoch of quantization (one epoch's worth
// of bytes plus one packet of discretization).
func TestFluidPacketEquivalence(t *testing.T) {
	const (
		pktSize = 1500
		epoch   = 100 * sim.Microsecond
		horizon = 20 * sim.Millisecond
	)
	prop := func(rateMbps uint16, allocMbps uint16) bool {
		// Arrival rates in (0, ~65] Gbps, allocations in (0, ~65] Gbps:
		// the quick checker sweeps underload, overload (limit drops) and
		// near-balance.
		arrival := units.BitRate(float64(rateMbps)+1) * units.Mbps * 100
		alloc := units.BitRate(float64(allocMbps)+1) * units.Mbps * 100

		pktAQ := New(Config{ID: 1, Rate: alloc})
		fluAQ := New(Config{ID: 1, Rate: alloc})

		r := arrival.BytesPerNano() // bytes per ns
		gapPkt := float64(pktSize) / r
		nextPkt := gapPkt
		tol := r*float64(epoch) + pktSize

		for now := epoch; now <= horizon; now += epoch {
			// Packet lane: back-to-back packets up to the epoch boundary.
			// The fluid epoch gets exactly the mass those packets carried,
			// so the comparison isolates the integration forms from the
			// inter-arrival rounding of the packet schedule.
			var epochBytes float64
			for sim.Time(nextPkt) <= now {
				pktAQ.arrived++
				pktAQ.arrivedBytes += uint64(pktSize)
				if gap := pktAQ.Update(sim.Time(nextPkt), pktSize); gap > pktAQ.limit {
					pktAQ.gap = gap - pktSize
					pktAQ.drops++
				}
				nextPkt += gapPkt
				epochBytes += pktSize
			}
			// Fluid lane: one epoch integral of the same mass.
			fluAQ.OnFluidEpoch(now, epochBytes, epoch)

			// Trajectories must agree at every epoch boundary. Advance the
			// packet AQ's drain to the boundary for an apples-to-apples
			// read (its last arrival may precede it).
			g := pktAQ.gap
			if d := float64(now - pktAQ.lastTime); d > 0 {
				g = math.Max(0, g-d*alloc.BytesPerNano())
			}
			if math.Abs(g-fluAQ.gap) > tol {
				t.Logf("arrival=%v alloc=%v t=%v: packet gap %.1f vs fluid gap %.1f (tol %.1f)",
					arrival, alloc, now, g, fluAQ.gap, tol)
				return false
			}
		}

		// Accepted bytes must match to the same order: what the packet AQ
		// let through vs the fluid accepted mass, within a small number of
		// epochs' quantization over the run.
		pktAccepted := float64(pktAQ.arrivedBytes) - float64(pktAQ.drops)*pktSize
		fluAccepted := fluAQ.fluidBytes - fluAQ.fluidDropped
		if math.Abs(pktAccepted-fluAccepted) > 10*tol {
			t.Logf("arrival=%v alloc=%v: accepted packet %.0f vs fluid %.0f",
				arrival, alloc, pktAccepted, fluAccepted)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOnFluidEpochECNMarkFraction pins the closed-form mark fraction: a
// rate held exactly at the allocation with the gap parked above the
// threshold marks everything; a drained gap marks nothing; a trajectory
// crossing the threshold mid-epoch marks the fraction above it.
func TestOnFluidEpochECNMarkFraction(t *testing.T) {
	alloc := 1 * units.Gbps
	aq := New(Config{ID: 1, Rate: alloc, CC: ECNType})
	r := alloc.BytesPerNano()
	epoch := sim.Time(sim.Millisecond)

	// Below threshold, rate == allocation: gap flat at ~0, no marks.
	fb := aq.OnFluidEpoch(epoch, r*float64(epoch), epoch)
	if fb.MarkFrac != 0 {
		t.Fatalf("flat low trajectory marked %.3f, want 0", fb.MarkFrac)
	}
	// Push the gap from 0 through the threshold at double rate: the gap
	// climbs linearly to 2*K(ish); roughly the second half of the climb
	// is above K.
	need := 2 * aq.ecnThreshold
	dt := sim.Time(need / r) // at slope r (2r in, r drained)
	fb = aq.OnFluidEpoch(epoch+dt, 2*r*float64(dt), dt)
	if math.Abs(fb.MarkFrac-0.5) > 0.02 {
		t.Fatalf("threshold-crossing epoch marked %.3f, want ~0.5", fb.MarkFrac)
	}
	if math.Abs(fb.Gap-need) > 1 {
		t.Fatalf("gap = %.1f, want %.1f", fb.Gap, need)
	}
	// Now hold exactly at allocation: gap stays parked above K, everything
	// marks.
	fb = aq.OnFluidEpoch(epoch+dt+epoch, r*float64(epoch), epoch)
	if fb.MarkFrac != 1 {
		t.Fatalf("parked-above-K epoch marked %.3f, want 1", fb.MarkFrac)
	}
}

// TestOnFluidEpochLimitSheds: offered mass beyond the AQ limit is dropped,
// not accrued — the fluid form of Algorithm 2's drop rule.
func TestOnFluidEpochLimitSheds(t *testing.T) {
	aq := New(Config{ID: 1, Rate: units.Gbps, Limit: 10_000})
	epoch := sim.Time(sim.Millisecond)
	offered := 500_000.0
	fb := aq.OnFluidEpoch(epoch, offered, epoch)
	drained := units.BitRate(units.Gbps).BytesPerNano() * float64(epoch)
	wantAccepted := drained + 10_000 // what drained plus what the limit holds
	if math.Abs(fb.Accepted-wantAccepted) > 1 {
		t.Fatalf("accepted %.0f, want %.0f", fb.Accepted, wantAccepted)
	}
	if fb.Gap != 10_000 {
		t.Fatalf("gap = %.0f, want parked at the limit", fb.Gap)
	}
	if lf := fb.LossFrac(); lf <= 0.7 {
		t.Fatalf("loss fraction = %.3f, want heavy loss", lf)
	}
}

// TestProcessFluidUnmatched: untagged or unmatched streams pass with
// everything accepted, mirroring the packet path.
func TestProcessFluidUnmatched(t *testing.T) {
	tbl := NewTable()
	fb := tbl.ProcessFluid(sim.Millisecond, 0, 1000, sim.Millisecond)
	if fb.Accepted != 1000 || fb.Dropped != 0 {
		t.Fatalf("NoAQ stream: %+v", fb)
	}
	fb = tbl.ProcessFluid(sim.Millisecond, 42, 1000, sim.Millisecond)
	if fb.Accepted != 1000 {
		t.Fatalf("unmatched stream: %+v", fb)
	}
	st := tbl.Stats()
	if st.FluidEpochs != 1 || st.FluidMisses != 1 {
		t.Fatalf("stats = %+v, want 1 epoch, 1 miss (NoAQ not counted)", st)
	}
}

// TestDeployBatchMatchesDeploy: the bulk path must land the same table as
// per-config Deploy.
func TestDeployBatchMatchesDeploy(t *testing.T) {
	cfgs := make([]Config, 100)
	for i := range cfgs {
		cfgs[i] = Config{ID: packet.AQID(i + 1), Rate: units.Gbps}
	}
	a := NewTable()
	for _, c := range cfgs {
		a.Deploy(c)
	}
	b := NewTable()
	b.DeployBatch(cfgs)
	if a.Len() != b.Len() {
		t.Fatalf("len %d vs %d", a.Len(), b.Len())
	}
	for _, c := range cfgs {
		if b.Lookup(c.ID) == nil {
			t.Fatalf("batch table missing %d", c.ID)
		}
	}
}

// refOnFluidEpoch is AQ.OnFluidEpoch as it stood before OnFluidRun took
// over the arithmetic, verbatim: the single-epoch reference the run kernel
// is fuzzed against.
func refOnFluidEpoch(a *AQ, now sim.Time, bytes float64, dt sim.Time) FluidFeedback {
	if bytes < 0 {
		bytes = 0
	}
	start := now - dt
	if dt <= 0 || a.lastTime > start {
		start = a.lastTime
	}
	width := float64(now - start)
	g0 := a.gap
	var g1, markFrac float64
	if width <= 0 {
		// Nothing left of the epoch to integrate: the mass lands as a
		// point deposit, exactly the packet form.
		g1 = g0 + bytes
		if a.cc == ECNType && g1 > a.ecnThreshold {
			markFrac = 1
		}
	} else {
		slope := bytes/width - a.rate
		g1 = g0 + slope*width
		if g1 < 0 {
			g1 = 0
		}
		if a.cc == ECNType {
			markFrac = markFraction(g0, slope, width, a.ecnThreshold)
		}
	}
	// The fluid form of the AQ-limit rule: the gap may not end the epoch
	// beyond the limit; the excess is shed and (as in Algorithm 2) does
	// not count against the allocation.
	dropped := g1 - a.limit
	if dropped < 0 {
		dropped = 0
	}
	if dropped > bytes {
		dropped = bytes
	}
	a.gap = g1 - dropped
	a.lastTime = now
	accepted := bytes - dropped
	a.fluidBytes += bytes
	a.fluidDropped += dropped
	a.fluidMarked += accepted * markFrac
	fb := FluidFeedback{
		Accepted: accepted,
		Dropped:  dropped,
		MarkFrac: markFrac,
		Gap:      a.gap,
	}
	if a.rate > 0 {
		fb.Delay = sim.FromFloat(a.gap / a.rate)
	}
	return fb
}

// sameBits reports bitwise float equality. Any NaN equals any NaN: which
// operand's payload survives an addition of two NaNs depends on the
// operand order the compiler picked for a commutative instruction, which
// is not part of the arithmetic under test.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// fuzzTape decodes a fuzz input as a stream of small integers; an
// exhausted tape reads zeros.
type fuzzTape struct{ b []byte }

func (t *fuzzTape) uint(width int) (v uint64) {
	for i := 0; i < width; i++ {
		v <<= 8
		if len(t.b) > 0 {
			v |= uint64(t.b[0])
			t.b = t.b[1:]
		}
	}
	return v
}

// mass draws one entity's offered bytes: zero, negative, ordinary, around
// the limit, huge, infinite, and raw bit patterns (NaNs, subnormals).
func (t *fuzzTape) mass() float64 {
	switch t.uint(1) % 8 {
	case 0:
		return 0
	case 1:
		return -float64(t.uint(2))
	case 2:
		return 1e300
	case 3:
		return math.Inf(1)
	case 4:
		return math.Float64frombits(t.uint(8))
	case 5:
		return float64(t.uint(3))
	default:
		return float64(t.uint(2)) / 7
	}
}

// FuzzFluidRunVsEpoch drives two identically configured AQs with the same
// tape of packet Updates and fluid runs — one through OnFluidRun (chunked
// at a fuzzed cap, with and without the optional outputs), one through the
// reference single-epoch call per entity — and requires the registers, the
// counters and every per-entity output to stay bitwise equal. The running
// totals OnFluidRun folds (one FluidTotals carried across the whole tape)
// must equal, bitwise, a sequential fold written here over the reference's
// per-entity outcomes: accepted, dropped and accepted/float64(dt), entity by
// entity. The exported OnFluidEpoch rides along as a third AQ.
//
// The tape is a sequence of ops. An op byte divisible by four is a packet:
// two bytes of time offset, two of size. Any other op is a run: one byte of
// entity count, one of chunk cap, two of clock advance, four of signed dt,
// then one mass per entity (see fuzzTape.mass); bit 2 of the op asks for the
// mark output and bit 3 for the delay output. The seed corpus is under
// testdata/fuzz/FuzzFluidRunVsEpoch, one file per regime its name states.
func FuzzFluidRunVsEpoch(f *testing.F) {
	f.Fuzz(func(t *testing.T, cc uint8, rateMbps, limit, threshold uint32, data []byte) {
		cfg := Config{
			ID:           1,
			Rate:         units.BitRate(rateMbps) * units.Mbps,
			Limit:        int(limit),
			CC:           CCType(cc % 3),
			ECNThreshold: int(threshold),
		}
		run, ref, epoch := New(cfg), New(cfg), New(cfg)
		check := func(what string, a *AQ) {
			t.Helper()
			rs, as := ref.Stats(), a.Stats()
			if !sameBits(a.gap, ref.gap) || a.lastTime != ref.lastTime ||
				!sameBits(as.FluidBytes, rs.FluidBytes) || !sameBits(as.FluidDropped, rs.FluidDropped) ||
				!sameBits(as.FluidMarked, rs.FluidMarked) {
				t.Fatalf("%s: gap %v last %v stats %+v, reference gap %v last %v stats %+v",
					what, a.gap, a.lastTime, as, ref.gap, ref.lastTime, rs)
			}
		}
		tape := &fuzzTape{b: data}
		var now sim.Time
		var sums, wantSums FluidTotals
		for len(tape.b) > 0 {
			op := tape.uint(1)
			if op%4 == 0 {
				// A packet arrival between runs: last_time lands wherever
				// the tape says, inside the next epoch or past its end.
				at, size := now+sim.Time(tape.uint(2)), int(tape.uint(2))
				for _, a := range []*AQ{run, ref, epoch} {
					a.Update(at, size)
				}
				check("after Update", run)
				continue
			}
			n := int(tape.uint(1))
			chunk := int(tape.uint(1))%70 + 1
			now += sim.Time(tape.uint(2))
			dt := sim.Time(int32(tape.uint(4))) // signed: dt <= 0 is an input
			bytes := make([]float64, n)
			for i := range bytes {
				bytes[i] = tape.mass()
			}
			accepted, dropped := make([]float64, n), make([]float64, n)
			var mark []float64
			var delay []sim.Time
			if op&4 != 0 {
				mark = make([]float64, n)
			}
			if op&8 != 0 {
				delay = make([]sim.Time, n)
			}
			if n == 0 {
				run.OnFluidRun(now, dt, nil, nil, nil, nil, nil, &sums) // an empty run is no call at all
			}
			for lo := 0; lo < n; lo += chunk {
				hi := min(lo+chunk, n)
				var m []float64
				var d []sim.Time
				if mark != nil {
					m = mark[lo:hi]
				}
				if delay != nil {
					d = delay[lo:hi]
				}
				run.OnFluidRun(now, dt, bytes[lo:hi], accepted[lo:hi], dropped[lo:hi], m, d, &sums)
			}
			for i, b := range bytes {
				want := refOnFluidEpoch(ref, now, b, dt)
				got := epoch.OnFluidEpoch(now, b, dt)
				if !sameBits(got.Accepted, want.Accepted) || !sameBits(got.Dropped, want.Dropped) ||
					!sameBits(got.MarkFrac, want.MarkFrac) || !sameBits(got.Gap, want.Gap) || got.Delay != want.Delay {
					t.Fatalf("OnFluidEpoch entity %d of %d: %+v, reference %+v", i, n, got, want)
				}
				if !sameBits(accepted[i], want.Accepted) || !sameBits(dropped[i], want.Dropped) ||
					(mark != nil && !sameBits(mark[i], want.MarkFrac)) ||
					(delay != nil && delay[i] != want.Delay) {
					t.Fatalf("OnFluidRun entity %d of %d (chunk %d): accepted %v dropped %v mark %v delay %v, reference %+v",
						i, n, chunk, accepted[i], dropped[i], mark, delay, want)
				}
				wantSums.Accepted += want.Accepted
				wantSums.Dropped += want.Dropped
				wantSums.AcceptedRate += want.Accepted / float64(dt)
			}
			if !sameBits(sums.Accepted, wantSums.Accepted) || !sameBits(sums.Dropped, wantSums.Dropped) ||
				!sameBits(sums.AcceptedRate, wantSums.AcceptedRate) {
				t.Fatalf("OnFluidRun totals after %d entities (chunk %d, dt %d): %+v, sequential fold of the reference %+v",
					n, chunk, dt, sums, wantSums)
			}
			check("after OnFluidRun", run)
			check("after OnFluidEpoch", epoch)
		}
	})
}

// TestZeroRateAQFluidRun states what an AQ of rate 0 does to a fluid run
// today (ROADMAP 1(d)): every delay output is 0, although the gap only
// grows, and the limit sheds what would take the gap past it. Three
// entities offer 1000 B each over a 1000 ns epoch into a 2500 B limit: the
// first ramps the gap to 1000 (slope 1 B/ns, nothing drains), the next two
// land as point deposits, and the third keeps 500 B. In the next epoch the
// gap sits at the limit and everything is dropped.
func TestZeroRateAQFluidRun(t *testing.T) {
	const dt = 1000
	aq := New(Config{ID: 1, Rate: 0, Limit: 2500})
	bytes := []float64{1000, 1000, 1000}
	for epoch, want := range []struct{ accepted, dropped []float64 }{
		{[]float64{1000, 1000, 500}, []float64{0, 0, 500}},
		{[]float64{0, 0, 0}, []float64{1000, 1000, 1000}},
	} {
		acc, drp := make([]float64, 3), make([]float64, 3)
		delay := []sim.Time{-1, -1, -1}
		aq.OnFluidRun(sim.Time(epoch+1)*dt, dt, bytes, acc, drp, nil, delay, &FluidTotals{})
		for i := range bytes {
			if acc[i] != want.accepted[i] || drp[i] != want.dropped[i] || delay[i] != 0 {
				t.Fatalf("epoch %d entity %d: accepted %v dropped %v delay %v, want %v %v 0",
					epoch, i, acc[i], drp[i], delay[i], want.accepted[i], want.dropped[i])
			}
		}
		if aq.Gap() != 2500 {
			t.Fatalf("epoch %d: gap %v, want the 2500 B limit", epoch, aq.Gap())
		}
	}
}

// TestFluidRunNonFiniteMass states what a NaN and a +Inf offered mass do to
// a fluid run today (ROADMAP item 1's open question): nothing refuses them.
// An ECN AQ of 1 Gbps (0.125 B/ns), a 10 000 B limit and a 5 000 B
// threshold takes one run of two entities over a 1000 ns epoch; the first
// entity takes the slope step, the second lands as a point deposit.
//
//   - A NaN mass makes the slope NaN: the gap, both splits and every fluid
//     counter are NaN, and the run's later entities inherit the NaN gap.
//   - A +Inf mass ends the epoch at an infinite gap, sheds all of it (d =
//     Inf - limit = Inf, not more than the mass) and leaves Inf - Inf = NaN
//     as both the gap and the accepted bytes; the offered and dropped
//     counters read +Inf until a NaN drop joins them, and the marked
//     counter is NaN (NaN accepted times the mark fraction).
//   - Every delay from a NaN gap is sim.FromFloat of a NaN: 0, on every
//     architecture.
//
// The next packet then drains and deposits onto a NaN gap, which no
// comparison admits: it passes unmarked and undropped and is stamped the
// NaN delay. The test states the behaviour; it does not endorse it. NaN is
// compared as sameBits does: which NaN payload survives is not part of it.
func TestFluidRunNonFiniteMass(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	nanTime := sim.FromFloat(nan) // 0 on every architecture
	for _, tc := range []struct {
		name                                  string
		bytes                                 []float64
		accepted, dropped, mark               [2]float64
		delay                                 [2]sim.Time
		fluidBytes, fluidDropped, fluidMarked float64
	}{
		{"NaN then 1000", []float64{nan, 1000},
			[2]float64{nan, nan}, [2]float64{nan, nan}, [2]float64{0, 0},
			[2]sim.Time{nanTime, nanTime}, nan, nan, nan},
		{"+Inf then 1000", []float64{inf, 1000},
			[2]float64{nan, nan}, [2]float64{inf, nan}, [2]float64{1, 0},
			[2]sim.Time{nanTime, nanTime}, inf, nan, nan},
		// The first entity ramps the gap to 1000 - 125 = 875 B, below the
		// threshold for the whole epoch; the +Inf point deposit then marks.
		{"1000 then +Inf", []float64{1000, inf},
			[2]float64{1000, nan}, [2]float64{0, inf}, [2]float64{0, 1},
			[2]sim.Time{7000, nanTime}, inf, inf, nan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			aq := New(Config{ID: 1, Rate: units.Gbps, Limit: 10_000, CC: ECNType, ECNThreshold: 5_000})
			var acc, drp, mark [2]float64
			var delay [2]sim.Time
			var sums FluidTotals
			aq.OnFluidRun(1000, 1000, tc.bytes, acc[:], drp[:], mark[:], delay[:], &sums)
			for i := range acc {
				if !sameBits(acc[i], tc.accepted[i]) || !sameBits(drp[i], tc.dropped[i]) ||
					!sameBits(mark[i], tc.mark[i]) || delay[i] != tc.delay[i] {
					t.Fatalf("entity %d: accepted %v dropped %v mark %v delay %v, want %v %v %v %v",
						i, acc[i], drp[i], mark[i], delay[i], tc.accepted[i], tc.dropped[i], tc.mark[i], tc.delay[i])
				}
			}
			if s := aq.Stats(); !math.IsNaN(aq.Gap()) || !sameBits(s.FluidBytes, tc.fluidBytes) ||
				!sameBits(s.FluidDropped, tc.fluidDropped) || !sameBits(s.FluidMarked, tc.fluidMarked) {
				t.Fatalf("gap %v, counters %+v; want a NaN gap and fluid bytes %v dropped %v marked %v",
					aq.Gap(), s, tc.fluidBytes, tc.fluidDropped, tc.fluidMarked)
			}
			p := packet.NewData(1, 2, 1, 0, 1500-packet.HeaderBytes)
			p.EcnCapable = true
			if v := aq.Process(2000, p); v != Pass || p.CE || p.VirtualDelay != nanTime || !math.IsNaN(aq.Gap()) {
				t.Fatalf("next packet: verdict %v CE %v delay %v gap %v; want Pass, unmarked, %v, NaN",
					v, p.CE, p.VirtualDelay, aq.Gap(), nanTime)
			}
			if s := aq.Stats(); s.Arrived != 1 || s.Drops != 0 || s.Marks != 0 {
				t.Fatalf("packet counters %+v, want 1 arrived, none dropped or marked", s)
			}
		})
	}
}
