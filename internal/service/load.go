package service

import (
	"fmt"
	"math"

	"aqueue/internal/cc"
	"aqueue/internal/fluid"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/transport"
	"aqueue/internal/units"
	"aqueue/internal/workload"
)

// LoadSpec describes one open-loop workload driver: Poisson flow arrivals
// at the given offered load (fraction of the guaranteed-link capacity),
// sizes drawn from the named distribution, every flow tagged with the
// tenant's granted AQ.
type LoadSpec struct {
	Tenant string      `json:"tenant,omitempty"`
	AQ     packet.AQID `json:"aq,omitempty"`   // ingress AQ tag (0 = untagged)
	Kind   string      `json:"kind"`           // websearch | datamining | fixed | fluid
	Size   int64       `json:"size,omitempty"` // bytes, kind "fixed" only
	Load   float64     `json:"load"`           // fraction of fabric capacity
	Seed   uint64      `json:"seed,omitempty"` // 0 derives one from the driver id
	CC     string      `json:"cc,omitempty"`   // defaults to Config.CC
	// Entities is the flow count of a kind "fluid" driver: the offered
	// load is split evenly across this many fluid entities, all tagged
	// with the driver's AQ. Zero means one entity.
	Entities int `json:"entities,omitempty"`
}

// Driver is one attached workload: an arrival process on the sender-side
// engine spawning transport flows between random src/dst pairs. All its
// callbacks run on the engine, so its state needs no locking as long as
// attach/detach happen at window boundaries — which the Fabric/Service
// contract guarantees.
type Driver struct {
	ID   uint32
	spec LoadSpec

	f       *Fabric
	eng     *sim.Engine
	rand    *sim.Rand
	sizer   workload.Sizer
	factory cc.Factory
	ecn     bool
	meanGap sim.Time

	next      *sim.Timer // the arrival process; nil on kind "fluid" drivers
	stopped   bool
	tracker   stats.FCT
	doneBytes int64

	// lane is set on kind "fluid" drivers instead of the arrival process:
	// the driver's load runs as rate ODEs through the ingress table at
	// fluid epochs, not as individual packet flows.
	lane *fluid.Lane
}

func sizerFor(kind string, size int64) (workload.Sizer, error) {
	switch kind {
	case "websearch":
		return workload.WebSearch{}, nil
	case "datamining":
		return workload.DataMining{}, nil
	case "fixed":
		if size <= 0 {
			return nil, fmt.Errorf("service: kind \"fixed\" needs a positive size, got %d", size)
		}
		return workload.Fixed(size), nil
	default:
		return nil, fmt.Errorf("service: unknown workload kind %q", kind)
	}
}

// Attach starts a driver at the current window boundary and returns it.
// Arrivals are deterministic: the seed defaults to a function of the
// driver id, so a scripted attach replays identically.
func (f *Fabric) Attach(spec LoadSpec) (*Driver, error) {
	// Written so that NaN, which no comparison admits, is refused with the
	// non-positive loads, and so is a finite load (1e308 arrives intact over
	// the wire) whose offered rate overflows: a lane or an arrival process
	// given +Inf stores NaN by its first epoch.
	if offered := spec.Load * float64(f.capacity); !(spec.Load > 0 && offered <= math.MaxFloat64) {
		return nil, fmt.Errorf("service: attach needs a positive load with a finite offered rate, got %g", spec.Load)
	}
	if spec.Kind == "fluid" {
		return f.attachFluid(spec)
	}
	sizer, err := sizerFor(spec.Kind, spec.Size)
	if err != nil {
		return nil, err
	}
	ccName := spec.CC
	if ccName == "" {
		ccName = f.cfg.CC
	}
	factory := cc.ByName(ccName)
	if factory == nil {
		return nil, fmt.Errorf("service: unknown cc algorithm %q", ccName)
	}
	mean := float64(0)
	if s, ok := sizer.(interface{ MeanBytes() float64 }); ok {
		mean = s.MeanBytes()
	} else {
		mean = float64(spec.Size)
	}
	loadRate := spec.Load * float64(f.capacity) / 8 // bytes per second offered
	// The mean inter-arrival must convert to sim.Time: past int64 it would
	// wrap negative and the clamp below would make it 1 ns, a flow per
	// nanosecond. Under 2^56 ns, Rand.ExpTime's tail (−ln u ≤ 37) still fits.
	gap := mean / loadRate * 1e9
	if !(gap < 1<<56) {
		return nil, fmt.Errorf("service: load %g is too small: mean flow inter-arrival %g ns exceeds %d", spec.Load, gap, int64(1)<<56)
	}
	meanGap := sim.Time(gap)
	if meanGap < 1 {
		meanGap = 1
	}
	id := f.nextID
	f.nextID++
	seed := spec.Seed
	if seed == 0 {
		seed = 0x5eed<<32 | uint64(id)
	}
	d := &Driver{
		ID:      id,
		spec:    spec,
		f:       f,
		eng:     f.srcs[0].Engine(),
		rand:    sim.NewRand(seed),
		sizer:   sizer,
		factory: factory,
		ecn:     ccName == "dctcp",
		meanGap: meanGap,
	}
	d.next = d.eng.NewTimer(d.fire)
	f.drivers[id] = d
	f.order = append(f.order, id)
	d.arm()
	return d, nil
}

// MaxFluidEntities bounds the entity count of one kind "fluid" driver. The
// count arrives over the wire, and the attach that registers the entities
// also starts their lane, which lays out every entity's state there and
// then, once, at its final size; a million is the largest population the
// repository's scenarios attach to one lane.
const MaxFluidEntities = 1 << 20

// attachFluid builds a kind "fluid" driver: the offered load split over
// spec.Entities rate-ODE entities advancing at the fabric's fluid epoch
// through the bottleneck switch's ingress table, sharing the trunk with
// the packet lane via residual accounting. Attach happens at a window
// boundary, so the first epoch lands cleanly inside the next window.
//
// One fluid driver at a time may be live: each driver's lane accounts the
// trunk on its own, blind to the other's fluid, and the pipe keeps only
// the last lane's claim, so two live lanes would over-subscribe the trunk
// and a detach would zero the survivor's claim. Detach frees the trunk.
func (f *Fabric) attachFluid(spec LoadSpec) (*Driver, error) {
	if f.fluidSw == nil {
		return nil, fmt.Errorf("service: kind \"fluid\" needs the dumbbell topology (got %q)", f.cfg.Topo)
	}
	for _, d := range f.drivers {
		if d.lane != nil && !d.stopped {
			return nil, fmt.Errorf("service: fluid driver %d already holds the trunk; detach it first", d.ID)
		}
	}
	entities := spec.Entities
	if entities <= 0 {
		entities = 1
	}
	if entities > MaxFluidEntities {
		return nil, fmt.Errorf("service: %d fluid entities exceed the per-driver ceiling of %d", entities, MaxFluidEntities)
	}
	ccName := spec.CC
	if ccName == "" {
		ccName = f.cfg.CC
	}
	// fluid.ParamsFor maps any name it does not know to the non-reactive
	// Fixed model; the names that mean it are spelled out here so a typo
	// is refused as it is for a packet driver.
	switch ccName {
	case "", "udp", "fixed":
	default:
		if cc.ByName(ccName) == nil {
			return nil, fmt.Errorf("service: unknown cc algorithm %q", ccName)
		}
	}
	id := f.nextID
	f.nextID++
	lane := fluid.NewLane(f.fluidSw.Engine(), f.fluidSw.Ingress, f.cfg.FluidEpoch)
	pi := lane.AddPipe(f.fluidPipe)
	per := units.BitRate(spec.Load * float64(f.capacity) / float64(entities))
	lane.AddN(fluid.EntityConfig{AQ: spec.AQ, CC: ccName, Rate: per, Pipe: pi}, entities)
	lane.Start(f.Now())
	d := &Driver{ID: id, spec: spec, f: f, lane: lane}
	f.drivers[id] = d
	f.order = append(f.order, id)
	return d, nil
}

// Detach stops a driver's arrival process at the current boundary;
// in-flight flows run to completion. It reports whether the id named a
// live (not yet detached) driver. The driver's statistics stay visible in
// snapshots.
func (f *Fabric) Detach(id uint32) bool {
	d, ok := f.drivers[id]
	if !ok || d.stopped {
		return false
	}
	d.stopped = true
	if d.next != nil {
		d.next.Disarm()
	}
	if d.lane != nil {
		d.lane.Stop()
	}
	return true
}

// Driver returns an attached driver by id, nil if unknown.
func (f *Fabric) Driver(id uint32) *Driver { return f.drivers[id] }

func (d *Driver) arm() {
	d.next.ArmAfter(d.rand.ExpTime(d.meanGap))
}

func (d *Driver) fire() {
	if d.stopped {
		return
	}
	d.arm()
	src := d.f.srcs[d.rand.Intn(len(d.f.srcs))]
	dst := d.f.dsts[d.rand.Intn(len(d.f.dsts))]
	size := d.sizer.Sample(d.rand)
	start := d.eng.Now()
	d.tracker.FlowStarted(size)
	s := transport.NewSender(src, dst, size, d.factory(), transport.Options{
		IngressAQ:  d.spec.AQ,
		EcnCapable: d.ecn,
	})
	s.OnComplete = func(now sim.Time) {
		d.tracker.FlowDone(start, now)
		d.doneBytes += size
	}
	s.Start(0)
}

// DriverSnap is a driver's slice of a telemetry snapshot. The fluid
// fields are set only on kind "fluid" drivers; they are omitempty so
// packet-only runs serialize — and therefore fingerprint — exactly as
// before the fluid lane existed.
type DriverSnap struct {
	ID         uint32  `json:"id"`
	Tenant     string  `json:"tenant,omitempty"`
	Kind       string  `json:"kind"`
	Load       float64 `json:"load"`
	AQ         uint32  `json:"aq,omitempty"`
	Active     bool    `json:"active"`
	Started    int     `json:"started"`
	Completed  int     `json:"completed"`
	AckedBytes int64   `json:"acked_bytes"`
	MeanFCTNS  int64   `json:"mean_fct_ns"`

	Entities       int     `json:"entities,omitempty"`
	EntityEpochs   uint64  `json:"entity_epochs,omitempty"`
	FluidDelivered float64 `json:"fluid_delivered_bytes,omitempty"`
	FluidDropped   float64 `json:"fluid_dropped_bytes,omitempty"`
}

// Snap summarises the driver.
func (d *Driver) Snap() DriverSnap {
	s := DriverSnap{
		ID:         d.ID,
		Tenant:     d.spec.Tenant,
		Kind:       d.spec.Kind,
		Load:       d.spec.Load,
		AQ:         uint32(d.spec.AQ),
		Active:     !d.stopped,
		Started:    d.tracker.Started,
		Completed:  d.tracker.Completed,
		AckedBytes: d.doneBytes,
		MeanFCTNS:  int64(d.tracker.MeanFCT()),
	}
	if d.lane != nil {
		st := d.lane.Stats()
		s.Entities = st.Entities
		s.EntityEpochs = st.EntityEpochs
		s.FluidDelivered = st.DeliveredBytes
		s.FluidDropped = st.DroppedBytes
	}
	return s
}
