package topo_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/units"
)

// waitSink records the physical queueing delay of every packet a pipe
// delivers, then releases it.
type waitSink struct {
	pool  *packet.Pool
	waits []float64
}

func (s *waitSink) Receive(p *packet.Packet) {
	s.waits = append(s.waits, float64(p.QueueDelay))
	s.pool.Release(p)
}

// TestPipeQueueingIsMD1 is an analytic anchor for the pipe's FIFO and
// virtual transmitter. Poisson arrivals of 1500 B packets into a 10 Gbps
// pipe make an M/D/1 queue with service time S = 1500·8 / 10 Gbps =
// 1200 ns, whose mean wait is Pollaczek–Khinchine's Wq = ρ·S / (2(1−ρ)):
// 257.1, 900.0 and 5400.0 ns at ρ = 0.3, 0.6 and 0.9. The expected value
// is that formula over constants, not the production TransmitNanos.
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
		sink := &waitSink{pool: pool, waits: make([]float64, 0, total)}
		pipe := topo.NewPipe(eng, 10*units.Gbps, sim.Microsecond, 1<<40, 0, sink)

		rng := rand.New(rand.NewPCG(1, uint64(rho*10)))
		meanGap := service / rho
		sent := 0
		var arrive func()
		arrive = func() {
			p := pool.Get()
			p.Src, p.Dst, p.Flow, p.Kind, p.Size = 0, 1, 1, packet.Data, size
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

		var means [batches]float64
		grand := 0.0
		for b := range means {
			for _, w := range sink.waits[warmup+b*perB : warmup+(b+1)*perB] {
				means[b] += w
			}
			means[b] /= perB
			grand += means[b]
		}
		grand /= batches
		ss := 0.0
		for _, m := range means {
			ss += (m - grand) * (m - grand)
		}
		half := t99*math.Sqrt(ss/(batches-1)/batches) + 1

		want := rho * service / (2 * (1 - rho))
		t.Logf("rho %.1f: mean wait %.1f ns, M/D/1 %.1f ns (ratio %.3f, ±%.1f ns)", rho, grand, want, grand/want, half)
		if math.Abs(grand-want) > half {
			t.Errorf("rho %.1f: mean wait %.1f ns, want %.1f ± %.1f ns (M/D/1)", rho, grand, want, half)
		}
	}
}
