package ratelimit

import (
	"sort"

	"aqueue/internal/control"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/units"
)

// Profile is a VM's bandwidth profile for the dynamic rate limiter:
// OutMin is the VM's guaranteed outbound bandwidth (ElasticSwitch's
// guarantee-partitioning tier), OutMax the outbound cap it may not exceed,
// and InMax the cap on aggregate traffic *to* the VM. For a paper-style
// exact traffic profile (§2.3) OutMin = OutMax = InMax = the reservation;
// for best-effort work-conserving VMs OutMax and InMax are the link
// capacity.
type Profile struct {
	OutMin units.BitRate
	OutMax units.BitRate
	InMax  units.BitRate
}

// DRL is the ElasticSwitch-style dynamic rate limiter: every adjustment
// interval (15 ms in the paper) it re-divides each VM's outbound and
// inbound bandwidth among the VM pairs that showed demand in the previous
// interval, using max-min water-filling, and reprograms per-pair token
// buckets. Because the demand estimate is always one interval stale, bursty
// traffic under-utilizes its allocation — the effect §5.2 measures.
type DRL struct {
	eng      *sim.Engine
	interval sim.Time
	capacity units.BitRate // shared bottleneck capacity
	floor    units.BitRate // bootstrap rate for newly active pairs

	vms   map[packet.HostID]*drlVM
	pairs map[pairKey]*drlPair

	// Ticks counts adjustment rounds (for tests).
	Ticks int

	tickT   *sim.Timer
	started bool
}

type pairKey struct{ src, dst packet.HostID }

type drlVM struct {
	host    *topo.Host
	profile Profile
}

type drlPair struct {
	tb        *TokenBucket
	submitted uint64 // bytes offered this interval
	idleFor   int
	rate      units.BitRate
}

// DefaultInterval is the paper's DRL adjustment interval (§5.1).
const DefaultInterval = 15 * sim.Millisecond

// NewDRL builds a DRL for a set of VMs sharing a bottleneck of the given
// capacity.
func NewDRL(eng *sim.Engine, capacity units.BitRate, interval sim.Time) *DRL {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &DRL{
		eng:      eng,
		interval: interval,
		capacity: capacity,
		floor:    50 * units.Mbps,
		vms:      make(map[packet.HostID]*drlVM),
		pairs:    make(map[pairKey]*drlPair),
	}
}

// AddVM registers a VM with its profile and installs the outbound filter.
func (d *DRL) AddVM(h *topo.Host, p Profile) {
	d.vms[h.ID()] = &drlVM{host: h, profile: p}
	h.Filter = func(pkt *packet.Packet) bool {
		if pkt.Kind != packet.Data {
			return false
		}
		d.submit(h, pkt)
		return true
	}
}

// Start begins the periodic adjustment loop.
func (d *DRL) Start() {
	if d.started {
		return
	}
	d.started = true
	d.tickT = d.eng.NewTimer(d.tick)
	d.tickT.ArmAfter(d.interval)
}

// PairRate reports the current allocation of a pair (0 if inactive).
func (d *DRL) PairRate(src, dst packet.HostID) units.BitRate {
	if p, ok := d.pairs[pairKey{src, dst}]; ok {
		return p.rate
	}
	return 0
}

// submit shapes one outbound packet through its pair limiter. A new pair
// starts at its guarantee-partitioned share immediately — ElasticSwitch's
// GP layer reacts to a pair becoming active right away; only the
// work-conserving RA layer is interval-paced.
func (d *DRL) submit(h *topo.Host, pkt *packet.Packet) {
	k := pairKey{h.ID(), pkt.Dst}
	p, ok := d.pairs[k]
	if !ok {
		init := d.initialRate(k)
		p = &drlPair{rate: init}
		p.tb = NewTokenBucket(d.eng, init, 0, h.Transmit)
		d.pairs[k] = p
	}
	p.submitted += uint64(pkt.Size)
	p.tb.Submit(pkt)
}

// initialRate guarantees a newly active pair min(outbound guarantee over
// the source's active pairs, inbound cap over the destination's active
// pairs), floored.
func (d *DRL) initialRate(k pairKey) units.BitRate {
	nSrc, nDst := 1, 1
	for k2 := range d.pairs {
		if k2.src == k.src {
			nSrc++
		}
		if k2.dst == k.dst {
			nDst++
		}
	}
	out := d.capacity
	if vm, ok := d.vms[k.src]; ok && vm.profile.OutMin > 0 {
		out = vm.profile.OutMin
	}
	in := d.capacity
	if vm, ok := d.vms[k.dst]; ok && vm.profile.InMax > 0 {
		in = vm.profile.InMax
	}
	r := units.BitRate(float64(out) / float64(nSrc))
	if r2 := units.BitRate(float64(in) / float64(nDst)); r2 < r {
		r = r2
	}
	if r < d.floor {
		r = d.floor
	}
	return r
}

// tick runs one ElasticSwitch adjustment round.
func (d *DRL) tick() {
	d.Ticks++
	var demands []pairDemand
	for k, p := range d.pairs {
		offered := float64(p.submitted) * 8 / d.interval.Seconds()
		backlog := float64(p.tb.Backlog()) * 8 / d.interval.Seconds()
		p.submitted = 0
		if offered == 0 && backlog == 0 {
			p.idleFor++
			if p.idleFor >= 3 {
				p.rate = d.floor
				p.tb.SetRate(d.floor)
				continue
			}
		} else {
			p.idleFor = 0
		}
		// The demand estimate grows past the current allocation when the
		// pair is backlogged, so allocations ramp up across intervals —
		// ElasticSwitch's rate-allocation probing, one interval at a time.
		est := offered*1.5 + backlog
		if backlog > 0 || offered > 0.8*float64(p.rate) {
			// The pair is throttled by its own limiter: its true demand is
			// unobservable, so claim at least the source's guarantee (the
			// GP layer reacts immediately) and double the current rate
			// (the RA layer's congestion-free increase).
			if vm, ok := d.vms[k.src]; ok && est < float64(vm.profile.OutMin) {
				est = float64(vm.profile.OutMin)
			}
			if est < 2*float64(p.rate) {
				est = 2 * float64(p.rate)
			}
		}
		if est < float64(d.floor) {
			est = float64(d.floor)
		}
		demands = append(demands, pairDemand{k, est})
	}
	if len(demands) == 0 {
		d.tickT.ArmAfter(d.interval)
		return
	}
	sort.Slice(demands, func(i, j int) bool { // deterministic iteration
		if demands[i].key.src != demands[j].key.src {
			return demands[i].key.src < demands[j].key.src
		}
		return demands[i].key.dst < demands[j].key.dst
	})

	// Stage 1: inbound water-fill per destination VM.
	caps := make([]float64, len(demands))
	for i := range caps {
		caps[i] = demands[i].est
	}
	caps = d.waterfillBy(demands, caps, func(k pairKey) (packet.HostID, float64) {
		in := d.capacity
		if vm, ok := d.vms[k.dst]; ok && vm.profile.InMax > 0 {
			in = vm.profile.InMax
		}
		return k.dst, float64(in)
	})
	// Stage 2: outbound water-fill per source VM.
	caps = d.waterfillBy(demands, caps, func(k pairKey) (packet.HostID, float64) {
		out := d.capacity
		if vm, ok := d.vms[k.src]; ok && vm.profile.OutMax > 0 {
			out = vm.profile.OutMax
		}
		return k.src, float64(out)
	})
	// Stage 3: the guaranteed tier — each source VM's OutMin is divided
	// among its demanding pairs first (guarantee partitioning)...
	guaranteed := d.waterfillBy(demands, caps, func(k pairKey) (packet.HostID, float64) {
		var g units.BitRate
		if vm, ok := d.vms[k.src]; ok {
			g = vm.profile.OutMin
		}
		return k.src, float64(g)
	})
	// ...and stage 4: the capacity left over by all guarantees is shared
	// work-conservingly among the residual demands (rate allocation).
	var gSum float64
	resid := make([]float64, len(caps))
	for i := range caps {
		gSum += guaranteed[i]
		resid[i] = caps[i] - guaranteed[i]
		if resid[i] < 0 {
			resid[i] = 0
		}
	}
	leftover := float64(d.capacity)*0.98 - gSum
	extra := control.Waterfill(leftover, resid, nil)
	for i, dm := range demands {
		rate := units.BitRate(guaranteed[i] + extra[i])
		if rate < d.floor {
			rate = d.floor
		}
		p := d.pairs[dm.key]
		p.rate = rate
		p.tb.SetRate(rate)
	}
	d.tickT.ArmAfter(d.interval)
}

// pairDemand is one pair's estimated demand in bits per second.
type pairDemand struct {
	key pairKey
	est float64
}

// waterfillBy groups the demands by the key function and water-fills each
// group's capacity over the current caps.
func (d *DRL) waterfillBy(demands []pairDemand, caps []float64, group func(pairKey) (packet.HostID, float64)) []float64 {
	type bucket struct {
		idx []int
		cap float64
	}
	groups := make(map[packet.HostID]*bucket)
	for i, dm := range demands {
		id, c := group(dm.key)
		b, ok := groups[id]
		if !ok {
			b = &bucket{cap: c}
			groups[id] = b
		}
		b.idx = append(b.idx, i)
	}
	out := make([]float64, len(caps))
	for _, b := range groups {
		sub := make([]float64, len(b.idx))
		for j, i := range b.idx {
			sub[j] = caps[i]
		}
		alloc := control.Waterfill(b.cap, sub, nil)
		for j, i := range b.idx {
			out[i] = alloc[j]
		}
	}
	return out
}
