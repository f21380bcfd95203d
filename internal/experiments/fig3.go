package experiments

import (
	"fmt"

	"aqueue/internal/core"
	"aqueue/internal/harness"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// Fig3Result holds the successive arrival-rate peaks of a rate-controlled
// source when its feedback comes from the strawman D(t) versus the A-Gap.
type Fig3Result struct {
	PeaksD []float64 // Gbps at each control cycle, strawman discrepancy
	PeaksA []float64 // Gbps at each control cycle, A-Gap discrepancy
}

// Fig3 reproduces Figure 3's behaviour: a congestion controller that
// overly reduces its rate (multiplicative decrease to 20% on positive
// discrepancy, additive increase otherwise) is driven once by the strawman
// D(t) (Expressions 4-5) and once by the A-Gap (Expression 7), against the
// same allocated rate R. Under D(t) the surplus accumulated while
// transmitting below R lets every cycle peak higher than the last
// (Fig. 3a); under the A-Gap the surplus is clamped away and the peaks stay
// flat (Fig. 3b).
func Fig3(cycles int) Fig3Result {
	const (
		tick    = 10 * sim.Microsecond
		thresh  = 20_000.0 // bytes of positive discrepancy that trigger MD
		aiGbps  = 0.25     // additive increase per tick
		mdRatio = 0.2
	)
	R := 5 * units.Gbps

	run := func(useStrawman bool) []float64 {
		s := core.NewStrawman(R)
		aq := core.New(core.Config{ID: 1, Rate: R, Limit: 1 << 40})
		rate := float64(R)
		now := sim.Time(0)
		var peaks []float64
		refractory := 0
		for len(peaks) < cycles {
			now += tick
			bytes := int(rate / 8 * tick.Seconds())
			var disc float64
			if useStrawman {
				disc = s.Arrive(now, bytes)
			} else {
				disc = aq.Update(now, bytes)
			}
			if refractory > 0 {
				refractory--
				continue
			}
			if disc > thresh {
				peaks = append(peaks, rate/1e9)
				rate *= mdRatio
				refractory = 50 // let the discrepancy drain before reacting again
			} else {
				rate += aiGbps * 1e9
			}
		}
		return peaks
	}
	return Fig3Result{PeaksD: run(true), PeaksA: run(false)}
}

// Fig3Experiment runs Fig3 for eight control cycles and renders the peak
// sequences side by side, with the last peak of each as a metric.
func Fig3Experiment(harness.Params) *harness.Result {
	r := Fig3(8)
	t := &harness.Table{
		Title:  "Figure 3: arrival-rate peaks under strawman D(t) vs A-Gap (allocated R = 5 Gbps)",
		Header: []string{"cycle", "peak with D(t) (Gbps)", "peak with A-Gap (Gbps)"},
	}
	for i := range r.PeaksD {
		t.AddRow(fmt.Sprint(i+1), r.PeaksD[i], r.PeaksA[i])
	}
	res := tables(t)
	res.Metrics = map[string]float64{
		"strawman_peak_gbps": r.PeaksD[len(r.PeaksD)-1],
		"agap_peak_gbps":     r.PeaksA[len(r.PeaksA)-1],
	}
	return res
}
