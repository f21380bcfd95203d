package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"aqueue/internal/sim"
)

func TestMeterBuckets(t *testing.T) {
	m := NewMeter(sim.Millisecond)
	m.Add(100, 1000)
	m.Add(500_000, 1000)
	m.Add(1_500_000, 4000)
	if s := m.Stats(); s.TotalBytes != 6000 {
		t.Fatalf("total = %d", s.TotalBytes)
	}
	// Bucket 0 holds the first two adds, bucket 1 the third; bucket 2 was
	// never metered, so the meter holds no bucket for it.
	if len(m.counts) != 2 || m.counts[0] != 2000 || m.counts[1] != 4000 {
		t.Fatalf("buckets = %v, want [2000 4000]", m.counts)
	}
}

func TestMeterGbpsClampsToMeteredRange(t *testing.T) {
	m := NewMeter(sim.Millisecond)
	for i := 0; i < 5; i++ {
		m.Add(sim.Time(i)*sim.Millisecond, 1250_000) // 10 Gbps per ms bucket
	}
	// The run stopped at 5 ms; asking for the rate up to 10 ms must not
	// halve the answer by averaging over 5 ms of never-metered tail.
	if got := m.Gbps(0, 10*sim.Millisecond); math.Abs(got-10) > 0.01 {
		t.Fatalf("Gbps over-long window = %v, want 10 (clamped)", got)
	}
	if m.end() != 5*sim.Millisecond {
		t.Fatalf("end = %v, want 5ms", m.end())
	}
	// A window entirely past the metered range has no data at all.
	if got := m.Gbps(6*sim.Millisecond, 10*sim.Millisecond); got != 0 {
		t.Fatalf("Gbps past metered range = %v, want 0", got)
	}
}

func TestMeterStatsJSONFriendly(t *testing.T) {
	m := NewMeter(sim.Millisecond)
	m.Add(100, 1000)
	m.Add(1_500_000, 3000)
	s := m.Stats()
	if s.TotalBytes != 4000 || s.Buckets != 2 || s.BucketNS != int64(sim.Millisecond) {
		t.Fatalf("Stats = %+v", s)
	}
	if s.FirstNS != 100 || s.LastNS != 1_500_000 {
		t.Fatalf("Stats range = %+v", s)
	}
	if math.Abs(s.AvgGbps-m.Gbps(0, m.end())) > 1e-12 {
		t.Fatalf("AvgGbps = %v", s.AvgGbps)
	}
}

func TestMeterGbpsWindow(t *testing.T) {
	m := NewMeter(sim.Millisecond)
	for i := 0; i < 10; i++ {
		m.Add(sim.Time(i)*sim.Millisecond, 1250_000) // 10 Gbps per ms bucket
	}
	got := m.Gbps(0, 10*sim.Millisecond)
	if math.Abs(got-10) > 0.01 {
		t.Fatalf("Gbps = %v, want 10", got)
	}
}

func TestRateGbps(t *testing.T) {
	if got := RateGbps(1250_000_000, sim.Second); math.Abs(got-10) > 1e-9 {
		t.Fatalf("RateGbps = %v", got)
	}
	if RateGbps(100, 0) != 0 {
		t.Fatal("zero duration should report 0")
	}
}

func TestPercentiles(t *testing.T) {
	var p Percentiles
	for i := 1; i <= 100; i++ {
		p.Add(float64(i))
	}
	if got := p.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := p.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	if got := p.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("median = %v", got)
	}
	if got := p.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
}

func TestPercentilesEmptyAndInterleaved(t *testing.T) {
	var p Percentiles
	if p.Quantile(0.5) != 0 || p.Mean() != 0 {
		t.Fatal("empty percentiles should report 0")
	}
	// Adding after querying must re-sort.
	p.Add(10)
	_ = p.Quantile(0.5)
	p.Add(1)
	if got := p.Quantile(0); got != 1 {
		t.Fatalf("q0 after late add = %v", got)
	}
}

func TestQuantileMatchesSortedOrder(t *testing.T) {
	f := func(vals []float64) bool {
		var p Percentiles
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				p.Add(v)
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		sort.Float64s(clean)
		return p.Quantile(0) == clean[0] && p.Quantile(1) == clean[len(clean)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares: %v", got)
	}
	got := JainIndex([]float64{1, 0, 0, 0})
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("single hog: %v, want 0.25", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Fatal("degenerate inputs should report 0")
	}
}

func TestJainIndexBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		any := false
		for i, v := range raw {
			xs[i] = float64(v)
			any = any || v != 0
		}
		if !any {
			return true
		}
		j := JainIndex(xs)
		return j >= 1/float64(len(xs))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxRatio(t *testing.T) {
	if got := MinMaxRatio([]float64{2, 4}); got != 0.5 {
		t.Fatalf("ratio = %v", got)
	}
	if got := MinMaxRatio([]float64{3, 3, 3}); got != 1 {
		t.Fatalf("equal ratio = %v", got)
	}
	if MinMaxRatio(nil) != 0 {
		t.Fatal("empty should report 0")
	}
}

func TestFCTTracking(t *testing.T) {
	var f FCT
	f.FlowStarted(1000)
	f.FlowStarted(2000)
	if f.AllDone() {
		t.Fatal("AllDone before completions")
	}
	f.FlowDone(0, 10*sim.Millisecond)
	f.FlowDone(5*sim.Millisecond, 30*sim.Millisecond)
	if !f.AllDone() {
		t.Fatal("AllDone after completions")
	}
	if f.CompletionTime() != 30*sim.Millisecond {
		t.Fatalf("completion time = %v", f.CompletionTime())
	}
	if f.Bytes != 3000 {
		t.Fatalf("bytes = %d", f.Bytes)
	}
	// FCTs are 10ms and 25ms; mean 17.5ms.
	if got := f.MeanFCT(); got != sim.Time(17_500_000) {
		t.Fatalf("mean FCT = %v", got)
	}
}

// TestFCTMeanMatchesSortedSamples: the running integer sum gives the mean
// the tracker used to compute from every sample — float64 samples, sorted,
// summed, divided by the count — bit for bit, for completions fed out of
// order and with FCTs from 1 ns to a second.
func TestFCTMeanMatchesSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 40))
	var f FCT
	var samples []float64
	for i := 0; i < 5000; i++ {
		start := sim.Time(rng.Int64N(int64(sim.Second)))
		fct := sim.Time(1 + rng.Int64N(int64(sim.Second)>>uint(rng.IntN(30))))
		f.FlowStarted(1)
		f.FlowDone(start, start+fct)
		samples = append(samples, float64(fct))
		if i%97 != 0 {
			continue
		}
		sorted := slices.Clone(samples)
		sort.Float64s(sorted)
		sum := 0.0
		for _, v := range sorted {
			sum += v
		}
		if want := sim.Time(sum / float64(len(sorted))); f.MeanFCT() != want {
			t.Fatalf("after %d completions: MeanFCT = %d, sorted-sum mean %d", i+1, f.MeanFCT(), want)
		}
	}
	if (&FCT{}).MeanFCT() != 0 {
		t.Fatal("an empty tracker's mean FCT is not 0")
	}
}
