// Package workload regenerates the paper's traffic: the web-search flow
// size distribution (the DCTCP trace used by §5.1), its data-mining
// companion, and an incast driver. The Poisson arrival process that draws
// flows from these sizers is internal/service's load driver.
package workload

import (
	"aqueue/internal/sim"
)

// cdfPoint is one knot of a piecewise-linear CDF over flow sizes.
type cdfPoint struct {
	bytes float64
	prob  float64
}

// webSearchCDF is the flow-size distribution of the production web-search
// workload published with DCTCP [4], as commonly tabulated for NS3
// reproductions: a heavy mix of small (<100 KB) query traffic and
// multi-megabyte background flows.
var webSearchCDF = []cdfPoint{
	{6_000, 0.15},
	{13_000, 0.20},
	{19_000, 0.30},
	{33_000, 0.40},
	{53_000, 0.53},
	{133_000, 0.60},
	{667_000, 0.70},
	{1_467_000, 0.80},
	{3_333_000, 0.90},
	{6_667_000, 0.97},
	{20_000_000, 1.00},
}

// Sizer samples flow sizes in bytes, and reports their mean, which converts
// an offered load fraction into a Poisson arrival rate.
type Sizer interface {
	Sample(r *sim.Rand) int64
	MeanBytes() float64
}

// WebSearch samples the web-search distribution by inverse-transform over
// the piecewise-linear CDF.
type WebSearch struct{}

// Sample implements Sizer.
func (WebSearch) Sample(r *sim.Rand) int64 {
	u := r.Float64()
	prevB, prevP := 1000.0, 0.0
	for _, pt := range webSearchCDF {
		if u <= pt.prob {
			frac := (u - prevP) / (pt.prob - prevP)
			return int64(prevB + frac*(pt.bytes-prevB))
		}
		prevB, prevP = pt.bytes, pt.prob
	}
	return int64(webSearchCDF[len(webSearchCDF)-1].bytes)
}

// MeanBytes returns the analytic mean of the distribution.
func (WebSearch) MeanBytes() float64 {
	prevB, prevP := 1000.0, 0.0
	mean := 0.0
	for _, pt := range webSearchCDF {
		mean += (pt.prob - prevP) * (prevB + pt.bytes) / 2
		prevB, prevP = pt.bytes, pt.prob
	}
	return mean
}

// Fixed always samples the same size: the daemon's workload kind "fixed",
// which the churn experiment attaches.
type Fixed int64

// Sample implements Sizer.
func (f Fixed) Sample(*sim.Rand) int64 { return int64(f) }

// MeanBytes returns the one size.
func (f Fixed) MeanBytes() float64 { return float64(f) }
