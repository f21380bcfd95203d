package topo_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/units"
)

// waitSink records the physical queueing delay and the AQ virtual delay of
// every packet a pipe delivers, counts the packets whose virtual delay is
// not exactly their wait plus service, then releases them.
type waitSink struct {
	pool       *packet.Pool
	service    sim.Time
	waits      []float64
	virtual    []float64
	mismatches int
}

func (s *waitSink) Receive(p *packet.Packet) {
	s.waits = append(s.waits, float64(p.QueueDelay))
	s.virtual = append(s.virtual, float64(p.VirtualDelay))
	if p.VirtualDelay != p.QueueDelay+s.service {
		s.mismatches++
	}
	s.pool.Release(p)
}

// batchMeans splits xs after warmup into batches consecutive batches of
// perB and returns the mean of the batch means and its two-sided 99 %
// Student-t half-width (t99 for batches−1 degrees of freedom).
func batchMeans(xs []float64, warmup, batches, perB int, t99 float64) (grand, half float64) {
	means := make([]float64, batches)
	for b := range means {
		for _, x := range xs[warmup+b*perB : warmup+(b+1)*perB] {
			means[b] += x
		}
		means[b] /= float64(perB)
		grand += means[b]
	}
	grand /= float64(batches)
	ss := 0.0
	for _, m := range means {
		ss += (m - grand) * (m - grand)
	}
	return grand, t99 * math.Sqrt(ss/float64(batches-1)/float64(batches))
}

// TestPipeQueueingIsMD1 is an analytic anchor for the pipe's FIFO and
// virtual transmitter. Poisson arrivals of 1500 B packets into a 10 Gbps
// pipe make an M/D/1 queue with service time S = 1500·8 / 10 Gbps =
// 1200 ns, whose mean wait is Pollaczek–Khinchine's Wq = ρ·S / (2(1−ρ)):
// 257.1, 900.0 and 5400.0 ns at ρ = 0.3, 0.6 and 0.9. The expected value
// is that formula over constants, not the production TransmitNanos.
//
// An AQ of rate R = 10 Gbps in front of the pipe anchors the paper's
// Table 4 claim: an entity alone behind an AQ of rate R sees a virtual
// delay equal to the M/D/1 queueing delay at service rate R. The AQ stamps
// gap/R with the gap including the packet's own bytes, so each packet's
// virtual delay is its sojourn time Wq + S, and at R = 1.25 B/ns the gap
// stays a multiple of 0.25 B, so the float recurrence equals the pipe's
// integer Lindley recurrence: every delivered packet must carry
// VirtualDelay == QueueDelay + 1200 exactly, and the mean virtual delay
// must lie within the batch-means half-width of Wq + S.
//
// Waits in a queue are autocorrelated — at ρ = 0.9 strongly so — so the
// tolerance is a batch-means confidence interval: after a warm-up, the
// waits fall into 20 consecutive batches, and the mean of the batch means
// must lie within t(0.995, 19)·sd/√20 of Wq, a two-sided 99 % Student-t
// half-width, plus 1 ns because arrival times are rounded to whole
// nanoseconds.
func TestPipeQueueingIsMD1(t *testing.T) {
	const (
		size    = 1500
		service = 1200.0 // ns: size·8 bits at 10 Gbps
		warmup  = 10_000
		batches = 20
		perB    = 20_000
		total   = warmup + batches*perB
		t99     = 2.861 // two-sided 99 % Student-t quantile, 19 degrees of freedom
	)
	for _, rho := range []float64{0.3, 0.6, 0.9} {
		eng := sim.NewEngine()
		pool := packet.PoolFor(eng)
		sink := &waitSink{pool: pool, service: service,
			waits: make([]float64, 0, total), virtual: make([]float64, 0, total)}
		pipe := topo.NewPipe(eng, 10*units.Gbps, sim.Microsecond, math.MaxInt32, 0, sink)
		aq := core.New(core.Config{ID: 1, Rate: 10 * units.Gbps, Limit: math.MaxInt32})

		rng := rand.New(rand.NewPCG(1, uint64(rho*10)))
		meanGap := service / rho
		sent := 0
		var arrive func()
		arrive = func() {
			p := pool.Get()
			p.Src, p.Dst, p.Flow, p.Kind, p.Size = 0, 1, 1, packet.Data, size
			if aq.Process(eng.Now(), p) != core.Pass {
				t.Fatalf("rho %.1f: the AQ dropped a packet", rho)
			}
			pipe.Send(p)
			if sent++; sent < total {
				eng.After(sim.Time(math.Round(rng.ExpFloat64()*meanGap)), arrive)
			}
		}
		eng.At(0, arrive)
		eng.Run()

		if drops := pipe.Queue().Dropped; drops != 0 {
			t.Fatalf("rho %.1f: %d drops, want 0", rho, drops)
		}
		if len(sink.waits) != total {
			t.Fatalf("rho %.1f: %d of %d packets delivered", rho, len(sink.waits), total)
		}

		if sink.mismatches != 0 {
			t.Errorf("rho %.1f: %d of %d packets have VirtualDelay != QueueDelay + %d ns", rho, sink.mismatches, total, int(service))
		}

		grand, half := batchMeans(sink.waits, warmup, batches, perB, t99)
		half++ // arrival times are rounded to whole nanoseconds
		want := rho * service / (2 * (1 - rho))
		t.Logf("rho %.1f: mean wait %.1f ns, M/D/1 %.1f ns (ratio %.3f, ±%.1f ns)", rho, grand, want, grand/want, half)
		if math.Abs(grand-want) > half {
			t.Errorf("rho %.1f: mean wait %.1f ns, want %.1f ± %.1f ns (M/D/1)", rho, grand, want, half)
		}

		vgrand, vhalf := batchMeans(sink.virtual, warmup, batches, perB, t99)
		vhalf++
		want += service
		t.Logf("rho %.1f: mean virtual delay %.1f ns, M/D/1 sojourn %.1f ns (±%.1f ns)", rho, vgrand, want, vhalf)
		if math.Abs(vgrand-want) > vhalf {
			t.Errorf("rho %.1f: mean virtual delay %.1f ns, want %.1f ± %.1f ns (M/D/1 Wq + S)", rho, vgrand, want, vhalf)
		}
	}
}
