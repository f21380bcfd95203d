package fluid

import (
	"math"
	"testing"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/units"
)

// sink swallows delivered packets; the fluid tests only need a pipe for
// the residual accounting, not its traffic.
type sink struct{}

func (sink) Receive(p *packet.Packet) {}

// TestFixedEntityAQRateLimit: a non-reactive fluid blaster offered 10G
// against a 2G AQ allocation must be throttled to the allocation — the
// fluid form of Figure 1's rate-limiting result.
func TestFixedEntityAQRateLimit(t *testing.T) {
	eng := sim.NewEngine()
	table := core.NewTable()
	table.Deploy(core.Config{ID: 7, Rate: 2 * units.Gbps})
	lane := NewLane(eng, table, 0)
	lane.Add(EntityConfig{AQ: 7, CC: "udp", Rate: 10 * units.Gbps, Pipe: -1})
	lane.Start(0)
	horizon := 100 * sim.Millisecond
	lane.SetDeadline(horizon)
	eng.RunUntil(horizon)

	e := lane.Entities()[0]
	got := e.Delivered() * 8 / float64(horizon) // bits per ns = Gbps
	if math.Abs(got-2) > 0.05 {
		t.Fatalf("delivered rate = %.3f Gbps, want ~2 (AQ allocation)", got)
	}
	if e.Dropped() <= 0 {
		t.Fatalf("expected the AQ limit to shed the 8 Gbps excess")
	}
	st := lane.Stats()
	if st.Epochs == 0 || st.EntityEpochs != st.Epochs {
		t.Fatalf("stats = %+v, want one entity-epoch per epoch", st)
	}
}

// TestLossEntityConvergesToShare: two loss-model entities on one 10G pipe
// with no AQ should AIMD their way to roughly half the link each.
func TestLossEntityConvergesToShare(t *testing.T) {
	eng := sim.NewEngine()
	table := core.NewTable()
	pipe := topo.NewPipe(eng, 10*units.Gbps, sim.Microsecond, 0, 0, sink{})
	lane := NewLane(eng, table, 0)
	pi := lane.AddPipe(pipe)
	a := lane.Add(EntityConfig{CC: "cubic", Rate: units.Gbps, Pipe: pi})
	b := lane.Add(EntityConfig{CC: "cubic", Rate: 8 * units.Gbps, Pipe: pi})
	lane.Start(0)
	horizon := 200 * sim.Millisecond
	lane.SetDeadline(horizon)
	eng.RunUntil(horizon)

	// Delivered over the last ~full run should be near-equal: AIMD with a
	// shared clip converges to equal shares.
	ra := a.Delivered() * 8 / float64(horizon)
	rb := b.Delivered() * 8 / float64(horizon)
	sum := ra + rb
	if sum < 8 || sum > 10.1 {
		t.Fatalf("aggregate = %.2f Gbps, want near link capacity", sum)
	}
	if ratio := math.Min(ra, rb) / math.Max(ra, rb); ratio < 0.6 {
		t.Fatalf("shares %.2f/%.2f Gbps, ratio %.2f, want rough fairness", ra, rb, ratio)
	}
}

// TestResidualCoupling: accepted fluid rate must land on the pipe as the
// packet lane's residual, and be released when the deadline passes.
func TestResidualCoupling(t *testing.T) {
	eng := sim.NewEngine()
	table := core.NewTable()
	pipe := topo.NewPipe(eng, 10*units.Gbps, sim.Microsecond, 0, 0, sink{})
	lane := NewLane(eng, table, 0)
	pi := lane.AddPipe(pipe)
	lane.Add(EntityConfig{CC: "udp", Rate: 4 * units.Gbps, Pipe: pi})
	lane.Start(0)
	lane.SetDeadline(10 * sim.Millisecond)
	eng.RunUntil(5 * sim.Millisecond)
	if fr := pipe.FluidRate(); math.Abs(float64(fr-4*units.Gbps)) > float64(units.Gbps)/10 {
		t.Fatalf("mid-run FluidRate = %v, want ~4Gbps", fr)
	}
	eng.RunUntil(20 * sim.Millisecond)
	if fr := pipe.FluidRate(); fr != 0 {
		t.Fatalf("post-deadline FluidRate = %v, want 0 (released)", fr)
	}
}

// TestLaneRejectsForeignPipe: a lane accounts only pipes on its own engine.
func TestLaneRejectsForeignPipe(t *testing.T) {
	eng := sim.NewEngine()
	other := sim.NewEngine()
	pipe := topo.NewPipe(other, 10*units.Gbps, 0, 0, 0, sink{})
	lane := NewLane(eng, core.NewTable(), 0)
	defer func() {
		if recover() == nil {
			t.Fatalf("AddPipe accepted a pipe from another engine")
		}
	}()
	lane.AddPipe(pipe)
}

func TestParamsForFamilies(t *testing.T) {
	cases := map[string]Model{
		"newreno": Loss, "cubic": Loss, "illinois": Loss, "bbr": Loss,
		"dctcp": ECN,
		"swift": Delay, "timely": Delay,
		"udp": Fixed, "": Fixed, "fixed": Fixed,
	}
	for name, want := range cases {
		if got := ParamsFor(name).Model; got != want {
			t.Errorf("ParamsFor(%q).Model = %d, want %d", name, got, want)
		}
	}
}

// TestZeroRatePipeClipsFluid states what a pipe of rate 0 does to the fluid
// lane today (ROADMAP 1(d)): its residual is 0, so an entity on it is
// clipped to nothing — 0 bytes delivered, all it wanted dropped (1 Gbps is
// 12 500 B per 100 µs epoch) — and the lane claims none of the pipe.
func TestZeroRatePipeClipsFluid(t *testing.T) {
	const epochs = 10
	eng := sim.NewEngine()
	pipe := topo.NewPipe(eng, 0, sim.Microsecond, 0, 0, sink{})
	lane := NewLane(eng, core.NewTable(), 100*sim.Microsecond)
	e := lane.Add(EntityConfig{CC: "udp", Rate: units.Gbps, Pipe: lane.AddPipe(pipe)})
	lane.Start(0)
	eng.RunUntil(epochs*lane.Epoch() + lane.Epoch()/2)
	if e.Delivered() != 0 || e.Dropped() != epochs*12_500 || pipe.FluidRate() != 0 {
		t.Fatalf("after %d epochs: delivered %v dropped %v, pipe claim %v; want 0, %d, 0",
			epochs, e.Delivered(), e.Dropped(), pipe.FluidRate(), epochs*12_500)
	}
	lane.Stop()
}
