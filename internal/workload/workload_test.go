package workload

import (
	"testing"

	"aqueue/internal/sim"
)

func TestWebSearchSampleRange(t *testing.T) {
	r := sim.NewRand(1)
	var ws WebSearch
	for i := 0; i < 100000; i++ {
		s := ws.Sample(r)
		if s < 1000 || s > 20_000_000 {
			t.Fatalf("sample out of range: %d", s)
		}
	}
}

func TestWebSearchEmpiricalMeanMatchesAnalytic(t *testing.T) {
	r := sim.NewRand(2)
	var ws WebSearch
	const n = 300000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(ws.Sample(r))
	}
	emp := sum / n
	ana := ws.MeanBytes()
	if emp < 0.97*ana || emp > 1.03*ana {
		t.Fatalf("empirical mean %.0f vs analytic %.0f", emp, ana)
	}
}

func TestWebSearchQuantiles(t *testing.T) {
	// The distribution is dominated by small flows: the median must be
	// well under 100 KB while the mean is above 500 KB (heavy tail).
	r := sim.NewRand(3)
	var ws WebSearch
	small := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if ws.Sample(r) < 100_000 {
			small++
		}
	}
	frac := float64(small) / n
	if frac < 0.5 || frac > 0.65 {
		t.Fatalf("fraction of <100KB flows = %.2f, want ~0.57", frac)
	}
	if ws.MeanBytes() < 500_000 {
		t.Fatalf("mean %.0f too small for a heavy-tailed trace", ws.MeanBytes())
	}
}

func TestFixedSizer(t *testing.T) {
	if Fixed(1234).Sample(sim.NewRand(1)) != 1234 {
		t.Fatal("Fixed sizer broken")
	}
}
