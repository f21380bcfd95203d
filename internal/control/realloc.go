package control

import (
	"sort"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// Reallocator implements the second work-conservation mechanism of §6:
// "dynamically adjust the allocated bandwidth of traffic constituents with
// the AQ abstraction ... measure their arrival rates in the network and
// then allow AQ to periodically recompute their allocated bandwidth",
// in the spirit of EyeQ and Seawall.
//
// Every interval it reads each managed AQ's arrival-byte counter, derives a
// demand estimate, and re-divides the link capacity: entities with demand
// below their weighted fair share keep (slightly more than) their demand,
// and the spare capacity is given to the backlogged entities — a max-min
// allocation over demands with weighted floors.
type Reallocator struct {
	eng      *sim.Engine
	ctrl     *Controller
	interval sim.Time

	entries []reallocEntry

	// Rounds counts completed adjustment rounds (for tests).
	Rounds int
	tickT  *sim.Timer
	stop   bool
}

type reallocEntry struct {
	id        packet.AQID
	aq        *core.AQ
	weight    float64
	lastBytes uint64
}

// NewReallocator builds a reallocator on top of a controller. interval <= 0
// selects 5 ms, a typical EyeQ-style adjustment period.
func NewReallocator(eng *sim.Engine, ctrl *Controller, interval sim.Time) *Reallocator {
	if interval <= 0 {
		interval = 5 * sim.Millisecond
	}
	r := &Reallocator{eng: eng, ctrl: ctrl, interval: interval}
	r.tickT = eng.NewTimer(r.tick)
	return r
}

// Manage adds a granted AQ (deployed in tbl) to the reallocation set with
// the given weight.
func (r *Reallocator) Manage(id packet.AQID, tbl *core.Table, weight float64) {
	if weight <= 0 {
		weight = 1
	}
	aq := tbl.Lookup(id)
	if aq == nil {
		return
	}
	r.entries = append(r.entries, reallocEntry{id: id, aq: aq, weight: weight})
}

// Start begins the periodic adjustment; Stop halts it.
func (r *Reallocator) Start() { r.tickT.ArmAfter(r.interval) }

// Stop halts the loop after the current interval.
func (r *Reallocator) Stop() { r.stop = true }

func (r *Reallocator) tick() {
	if r.stop || len(r.entries) == 0 {
		return
	}
	r.Rounds++
	capacity := float64(r.ctrl.Capacity())
	var totalW float64
	demands := make([]float64, len(r.entries))
	for i := range r.entries {
		e := &r.entries[i]
		totalW += e.weight
		arrivedBytes := e.aq.Stats().ArrivedBytes
		bytes := arrivedBytes - e.lastBytes
		e.lastBytes = arrivedBytes
		offered := float64(bytes) * 8 / r.interval.Seconds()
		// Demand headroom: an entity pinned at its allocation is assumed
		// to want more (its true demand is unobservable, as in EyeQ's
		// congestion detectors); a clearly under-using entity is taken at
		// its measured rate plus slack.
		cur := float64(e.aq.Rate())
		if offered > 0.9*cur {
			demands[i] = capacity
		} else {
			demands[i] = offered * 1.2
		}
	}
	// Weighted max-min: satisfy small demands, then split the remainder by
	// weight among the unsatisfied.
	alloc := Waterfill(capacity, demands, r.weights(totalW))
	for i := range r.entries {
		e := &r.entries[i]
		rate := units.BitRate(alloc[i])
		// Keep a small floor so an idle entity can restart promptly.
		if min := units.BitRate(capacity * 0.01); rate < min {
			rate = min
		}
		e.aq.SetRate(rate)
	}
	r.tickT.ArmAfter(r.interval)
}

func (r *Reallocator) weights(total float64) []float64 {
	w := make([]float64, len(r.entries))
	for i := range r.entries {
		w[i] = r.entries[i].weight / total
	}
	return w
}

// Waterfill allocates capacity c over demands with weighted max-min fair
// shares: visiting entities in increasing demand per weight, it gives each
// its weighted share of the remaining capacity, capped at its demand. Nil
// weights mean equal shares. A capacity c <= 0 allocates nothing.
func Waterfill(c float64, demands, weights []float64) []float64 {
	n := len(demands)
	out := make([]float64, n)
	if n == 0 || c <= 0 {
		return out
	}
	weight := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	type item struct {
		idx   int
		dPerW float64
	}
	items := make([]item, n)
	for i := range demands {
		w := weight(i)
		if w <= 0 {
			w = 1e-12
		}
		items[i] = item{i, demands[i] / w}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].dPerW < items[b].dPerW })
	remaining := c
	remW := 0.0
	for _, it := range items {
		remW += weight(it.idx)
	}
	for _, it := range items {
		i := it.idx
		share := remaining * weight(i) / remW
		a := demands[i]
		if a > share {
			a = share
		}
		out[i] = a
		remaining -= a
		remW -= weight(i)
		if remW <= 0 {
			break
		}
	}
	return out
}
