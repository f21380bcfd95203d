// Package stats provides the measurement primitives the experiment harness
// uses: windowed throughput meters, percentile estimation over delay
// samples, Jain's fairness index, and flow-completion tracking per entity.
package stats

import (
	"math"
	"sort"

	"aqueue/internal/sim"
)

// Meter accumulates bytes into fixed-width time buckets so experiments can
// report throughput time series (Figure 9) as well as averages.
//
// Every reduction is order-independent (integer bucket sums, min/max
// range), so results do not depend on the order adds arrive in.
type Meter struct {
	bucket sim.Time
	counts []uint64
	total  uint64
	first  sim.Time
	last   sim.Time
	// seen records that at least one add happened: first is a minimum, and
	// until the first add sets it outright its zero value would win.
	seen bool
}

// NewMeter returns a meter with the given bucket width.
func NewMeter(bucket sim.Time) *Meter {
	if bucket <= 0 {
		bucket = sim.Millisecond
	}
	return &Meter{bucket: bucket}
}

// Add accounts n bytes observed at time now.
func (m *Meter) Add(now sim.Time, n int) {
	idx := int(now / m.bucket)
	for len(m.counts) <= idx {
		m.counts = append(m.counts, 0)
	}
	m.counts[idx] += uint64(n)
	m.total += uint64(n)
	m.mark(now)
}

// mark folds one add time into the metered range. first/last are min/max,
// not first/latest-add-wins, the summaries of the range that do not depend
// on the order adds arrive in.
func (m *Meter) mark(now sim.Time) {
	if !m.seen || now < m.first {
		m.first = now
	}
	m.seen = true
	if now > m.last {
		m.last = now
	}
}

// end is the end of the metered range: the close of the last bucket that
// received bytes (zero before any Add).
func (m *Meter) end() sim.Time { return sim.Time(len(m.counts)) * m.bucket }

// Gbps returns the average rate in Gbit/s over [from, to]. The window is
// clamped to the metered range: a `to` past the end of the last recorded
// bucket is pulled back to that end, so a run that stopped early reports the
// rate over the interval it actually covered instead of a rate deflated
// by empty tail buckets. A window entirely past the metered range is 0.
func (m *Meter) Gbps(from, to sim.Time) float64 {
	if end := m.end(); to > end {
		to = end
	}
	if to <= from {
		return 0
	}
	var sum uint64
	lo, hi := int(from/m.bucket), int(to/m.bucket)
	for i := lo; i <= hi && i < len(m.counts); i++ {
		sum += m.counts[i]
	}
	return float64(sum) * 8 / (to - from).Seconds() / 1e9
}

// MeterStats is the JSON-friendly summary of a Meter, used by the harness
// when serializing experiment results.
type MeterStats struct {
	TotalBytes uint64  `json:"total_bytes"`
	BucketNS   int64   `json:"bucket_ns"`
	Buckets    int     `json:"buckets"`
	FirstNS    int64   `json:"first_ns"`
	LastNS     int64   `json:"last_ns"`
	AvgGbps    float64 `json:"avg_gbps"`
}

// Stats summarises the meter over its metered range.
func (m *Meter) Stats() MeterStats {
	return MeterStats{
		TotalBytes: m.total,
		BucketNS:   int64(m.bucket),
		Buckets:    len(m.counts),
		FirstNS:    int64(m.first),
		LastNS:     int64(m.last),
		AvgGbps:    m.Gbps(0, m.end()),
	}
}

// RateGbps converts a byte count over a duration into Gbit/s.
func RateGbps(bytes uint64, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e9
}

// Percentiles collects samples and reports order statistics. Samples are
// kept exactly (the experiments generate at most a few million).
//
// Like Meter's, every reduction is order-independent: it runs over the
// sorted samples, so results depend only on the multiset.
type Percentiles struct {
	samples []float64
	sorted  bool
}

// AddDuration records a time sample.
func (p *Percentiles) AddDuration(d sim.Time) { p.Add(float64(d)) }

// Add records a sample.
func (p *Percentiles) Add(v float64) {
	p.samples = append(p.samples, v)
	p.sorted = false
}

// Quantile returns the q-th quantile (0 <= q <= 1), or 0 with no samples.
func (p *Percentiles) Quantile(q float64) float64 {
	if len(p.samples) == 0 {
		return 0
	}
	if !p.sorted {
		sort.Float64s(p.samples)
		p.sorted = true
	}
	if q <= 0 {
		return p.samples[0]
	}
	if q >= 1 {
		return p.samples[len(p.samples)-1]
	}
	pos := q * float64(len(p.samples)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(p.samples) {
		return p.samples[lo]
	}
	return p.samples[lo]*(1-frac) + p.samples[lo+1]*frac
}

// Mean returns the sample mean. The sum runs over the sorted samples:
// float addition is not associative, so summing in add order would make
// the last bit of the mean depend on the order samples arrive in.
func (p *Percentiles) Mean() float64 {
	if len(p.samples) == 0 {
		return 0
	}
	if !p.sorted {
		sort.Float64s(p.samples)
		p.sorted = true
	}
	var sum float64
	for _, v := range p.samples {
		sum += v
	}
	return sum / float64(len(p.samples))
}

// JainIndex computes Jain's fairness index over the given allocations:
// (Σx)² / (n·Σx²). It is 1 for perfectly equal shares and 1/n in the
// maximally unfair case.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// MinMaxRatio returns min/max of the inputs — the paper's "entity fairness"
// metric (§5.2: the ratio of the shorter completion time to the longer).
func MinMaxRatio(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if hi <= 0 {
		return 0
	}
	return lo / hi
}

// FCT tracks the flow completions of one entity's workload: it reports the
// workload completion time (when the last flow finishes) and FCT
// statistics.
//
// Every reduction is order-independent (counts, integer sums, max), so
// one tracker may be fed by many senders in any order (the incast pattern:
// 32 senders, one tracker), and its state is constant-size however many
// flows complete.
type FCT struct {
	Started   int
	Completed int
	LastDone  sim.Time
	Bytes     int64
	fctSum    sim.Time // Σ (done − start) over completed flows, ns
}

// FlowStarted accounts a new flow of the given size.
func (f *FCT) FlowStarted(size int64) {
	f.Started++
	f.Bytes += size
}

// FlowDone accounts a completion at time now for a flow started at start.
func (f *FCT) FlowDone(start, now sim.Time) {
	f.Completed++
	if now > f.LastDone {
		f.LastDone = now
	}
	f.fctSum += now - start
}

// AllDone reports whether every started flow completed.
func (f *FCT) AllDone() bool {
	return f.Completed == f.Started && f.Started > 0
}

// CompletionTime returns when the last flow finished (the paper's workload
// completion time).
func (f *FCT) CompletionTime() sim.Time {
	return f.LastDone
}

// MeanFCT returns the mean flow completion time, or 0 before any flow
// completes. The quotient is taken in float64, so it is exactly the mean
// of the float samples while the summed FCT stays below 2^53 ns (104 days).
func (f *FCT) MeanFCT() sim.Time {
	if f.Completed == 0 {
		return 0
	}
	return sim.FromFloat(float64(f.fctSum) / float64(f.Completed))
}
