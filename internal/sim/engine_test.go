package sim

import (
	"math"
	"testing"
	"testing/quick"
)

// TestFromFloat pins the one float-to-Time conversion on every
// architecture: it truncates toward zero as a conversion does, reads NaN as
// 0 and saturates at ±(1<<62 − 1), where a plain conversion is
// implementation-specific (NaN is math.MinInt64 on amd64, 0 on 386). Two
// saturated times still add without wrapping.
func TestFromFloat(t *testing.T) {
	const two62 = 1 << 62
	for _, tc := range []struct {
		ns   float64
		want Time
	}{
		{math.NaN(), 0},
		{math.Inf(1), maxTime},
		{math.Inf(-1), -maxTime},
		{1e300, maxTime},
		{-1e300, -maxTime},
		{two62, maxTime},
		{-two62, -maxTime},
		{math.Nextafter(two62, 0), two62 - 512}, // the largest float below 2^62 converts exactly
		{1 << 53, 1 << 53},
		{0.5, 0},
		{-0.5, 0},
		{math.Copysign(0, -1), 0},
		{1.9, 1},
		{-1.9, -1},
		{12_500, 12_500},
	} {
		if got := FromFloat(tc.ns); got != tc.want {
			t.Errorf("FromFloat(%v) = %d, want %d", tc.ns, got, tc.want)
		}
	}
	if sum := FromFloat(math.Inf(1)) + FromFloat(math.Inf(1)); sum <= 0 {
		t.Errorf("two saturated times sum to %d: wrapped", sum)
	}
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(30, func() { got = append(got, e.Now()) })
	e.At(10, func() { got = append(got, e.Now()) })
	e.At(20, func() { got = append(got, e.Now()) })
	e.Run()
	want := []Time{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestEngineAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("clock at %v after RunUntil(25)", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending", e.Pending())
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestEngineClockNeverGoesBackwards(t *testing.T) {
	// Property: for any set of event times, observed firing times are
	// monotonically non-decreasing.
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.At(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandExpTimeMean(t *testing.T) {
	r := NewRand(99)
	const mean = Time(1000000)
	var sum Time
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpTime(mean)
	}
	avg := float64(sum) / n
	if avg < 0.97*float64(mean) || avg > 1.03*float64(mean) {
		t.Fatalf("exponential mean %v, want ~%v", avg, mean)
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(11)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:           "5ns",
		1500:        "1.500us",
		2500000:     "2.500ms",
		3 * Second:  "3.000s",
		Microsecond: "1.000us",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestNextSeqPerDomainAndPerEngine(t *testing.T) {
	e := NewEngine()
	a := e.SeqDomain("a")
	if e.NextIn(a) != 1 || e.NextIn(a) != 2 {
		t.Fatal("sequence not monotonic from 1")
	}
	if e.NextIn(e.SeqDomain("b")) != 1 {
		t.Fatal("domains share a counter")
	}
	if other := NewEngine(); other.NextIn(other.SeqDomain("a")) != 1 {
		t.Fatal("engines share a counter")
	}
}
