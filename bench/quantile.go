package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics (position q·(n-1), the
// "inclusive" rule). It sorts a copy. NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo < 0 {
		return s[0]
	}
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// fast is the fastest-twentieth boundary (p5) of a set of timings: the
// statistic every feeder's cost is reported as. Host noise on a shared
// box is additive and one-sided (a neighbour can only make a repeat
// slower), so the fast tail repeats where the median does not, and a real
// slowdown shifts both by the same amount. p5 rather than p10 because the
// recording host's noisy spells leave only 5–10 % of a run quiet
// (README.md, "Noise protocol").
func fast(xs []float64) float64 { return quantile(xs, 0.05) }

// floorSum is the statistic the end-to-end times are reported as. iters
// holds, per iteration, the times of the iteration's parts; every iteration
// has the same parts doing identical work. The result is the sum over parts
// of the fastest time that part took in any iteration: the iteration the
// run would have timed had the host been quiet throughout. A noisy spell
// that leaves no whole 0.3 s iteration undisturbed still leaves each 25 ms
// part undisturbed in one iteration of forty; a real slowdown raises a
// part's floor as much as its median. What the floor leaves out is cost
// that lands on a different part every iteration. The collector does not:
// every iteration starts from a collected heap and allocates identically,
// so its cycles fall in the same parts each time.
func floorSum(iters [][]float64) float64 {
	if len(iters) == 0 {
		return math.NaN()
	}
	var sum float64
	for k := range iters[0] {
		floor := math.Inf(1)
		for _, it := range iters {
			if k < len(it) && it[k] < floor {
				floor = it[k]
			}
		}
		sum += floor
	}
	return sum
}

// totals returns each iteration's whole time.
func totals(iters [][]float64) []float64 {
	out := make([]float64, len(iters))
	for i, it := range iters {
		for _, x := range it {
			out[i] += x
		}
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" rule, position
// q·(n+1)), because that is the rule the acceptance protocol states its
// spread in. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// repeat-to-repeat noise figure every bound is compared against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}
