package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, shuffled
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.10, 1.9}, {0.25, 3.25}, {0.50, 5.5}, {0.99, 9.91}, {1, 10},
	} {
		if got := quantile(xs, tc.q); !near(got, tc.want) {
			t.Errorf("quantile(1..10, %g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its argument in place")
	}
	if got := fast([]float64{7}); got != 7 {
		t.Errorf("fast() of one sample = %g, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample should be NaN")
	}
}

// TestFastIgnoresOneSidedNoise is the reason the protocol reports a fast quantile: slow
// outliers added to a third of the iterations do not move it, a uniform
// slowdown does.
func TestFastIgnoresOneSidedNoise(t *testing.T) {
	quiet := make([]float64, 40)
	noisy := make([]float64, 40)
	slower := make([]float64, 40)
	for i := range quiet {
		quiet[i] = 100 + float64(i%5)
		noisy[i] = quiet[i]
		if i%3 == 0 {
			noisy[i] += 80
		}
		slower[i] = quiet[i] * 1.1
	}
	if fast(noisy) != fast(quiet) {
		t.Errorf("fast() moved under one-sided noise: %g vs %g", fast(noisy), fast(quiet))
	}
	if median(noisy) == median(quiet) {
		t.Error("the median should have moved under this noise; the test no longer discriminates")
	}
	if got := fast(slower) / fast(quiet); !near(got, 1.1) {
		t.Errorf("a 10%% slowdown moved fast() by %g", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4)
// (the default "exclusive" method), which the acceptance protocol uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{2, 1}, 0.75, 2.25}, // two points: Python extrapolates
		{[]float64{5, 5, 5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if spread([]float64{4}) != 0 {
		t.Error("spread of one sample should be 0")
	}
}

func TestLatencyHistMedian(t *testing.T) {
	var h latencyHist
	if h.p50us() != 0 {
		t.Error("empty histogram should report 0")
	}
	// 100 samples in bucket 10 (640–703 ns), 100 in bucket 20.
	for i := 0; i < 100; i++ {
		h.add(10 * latencyBucketNS)
		h.add(20*latencyBucketNS + 5)
	}
	// The 100th of 200 samples is the last one of bucket 10: its upper edge.
	if got, want := h.p50us(), 11.0*latencyBucketNS/1e3; !near(got, want) {
		t.Errorf("p50 = %g us, want %g", got, want)
	}
	h.add(1 << 40) // far beyond the range: clamps, does not panic
	h.reset()
	if h.n != 0 {
		t.Error("reset left samples behind")
	}
}

// TestFloorSumSurvivesNoiseOnEveryIteration is why the end-to-end times are
// floors of parts and not a quantile of whole iterations: with some part of
// every iteration disturbed no whole iteration is quiet, yet each part is
// quiet somewhere; and a uniform slowdown still shows in full.
func TestFloorSumSurvivesNoiseOnEveryIteration(t *testing.T) {
	const iters, parts = 40, 10
	quiet := make([][]float64, iters)
	noisy := make([][]float64, iters)
	slower := make([][]float64, iters)
	for i := range quiet {
		quiet[i] = make([]float64, parts)
		noisy[i] = make([]float64, parts)
		slower[i] = make([]float64, parts)
		for k := range quiet[i] {
			quiet[i][k] = float64(10 + k)
			noisy[i][k] = quiet[i][k]
			if (i+k)%3 != 0 { // two parts in three of every iteration are disturbed
				noisy[i][k] *= 1.6
			}
			slower[i][k] = quiet[i][k] * 1.1
		}
	}
	if got, want := floorSum(noisy), floorSum(quiet); !near(got, want) {
		t.Errorf("floorSum moved under noise that spares each part somewhere: %g vs %g", got, want)
	}
	if fast(totals(noisy)) <= 1.2*fast(totals(quiet)) {
		t.Error("p5 of whole iterations should have moved under this noise; the test no longer discriminates")
	}
	if got := floorSum(slower) / floorSum(quiet); !near(got, 1.1) {
		t.Errorf("a 10%% slowdown moved floorSum by %g", got)
	}
	// An iteration that failed part-way contributes the parts it has.
	ragged := append([][]float64{{1, 2, 3}}, []float64{0.5})
	if got := floorSum(ragged); !near(got, 0.5+2+3) {
		t.Errorf("floorSum of ragged iterations = %g, want 5.5", got)
	}
	if !math.IsNaN(floorSum(nil)) {
		t.Error("floorSum of no iterations should be NaN")
	}
}
