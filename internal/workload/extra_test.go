package workload

import (
	"testing"

	"aqueue/internal/sim"
	"aqueue/internal/topo"
)

func TestDataMiningSampleRange(t *testing.T) {
	r := sim.NewRand(4)
	var dm DataMining
	for i := 0; i < 50000; i++ {
		s := dm.Sample(r)
		if s < 100 || s > 30_000_000 {
			t.Fatalf("sample out of range: %d", s)
		}
	}
}

func TestDataMiningHeavierTailThanWebSearch(t *testing.T) {
	// Data mining is far more bimodal: more tiny flows AND a bigger share
	// of bytes in giant flows.
	r := sim.NewRand(5)
	var dm DataMining
	tiny := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if dm.Sample(r) < 2000 {
			tiny++
		}
	}
	frac := float64(tiny) / n
	if frac < 0.5 || frac > 0.7 {
		t.Fatalf("tiny-flow fraction %.2f, want ~0.6", frac)
	}
	if dm.MeanBytes() < 1_000_000 {
		t.Fatalf("mean %.0f too small for the data-mining trace", dm.MeanBytes())
	}
}

func TestDataMiningEmpiricalMean(t *testing.T) {
	r := sim.NewRand(6)
	var dm DataMining
	const n = 400000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(dm.Sample(r))
	}
	emp := sum / n
	ana := dm.MeanBytes()
	if emp < 0.95*ana || emp > 1.05*ana {
		t.Fatalf("empirical mean %.0f vs analytic %.0f", emp, ana)
	}
}

func TestIncastRounds(t *testing.T) {
	eng := sim.NewEngine()
	st := topo.NewStar(eng, 5, topo.DefaultTestbed())
	in := Incast{
		Senders:       st.Hosts[1:],
		Receiver:      st.Hosts[0],
		ResponseBytes: 20_000,
		Period:        2 * sim.Millisecond,
		Rounds:        5,
	}
	in.Start()
	eng.RunUntil(sim.Second)
	if in.Tracker.Started != 4*5 {
		t.Fatalf("started %d responses, want 20", in.Tracker.Started)
	}
	if !in.Tracker.AllDone() {
		t.Fatalf("completed %d/%d", in.Tracker.Completed, in.Tracker.Started)
	}
}

func TestIncastUnboundedStopsAtHorizon(t *testing.T) {
	eng := sim.NewEngine()
	st := topo.NewStar(eng, 3, topo.DefaultTestbed())
	in := Incast{
		Senders:       st.Hosts[1:],
		Receiver:      st.Hosts[0],
		ResponseBytes: 10_000,
		Period:        sim.Millisecond,
	}
	in.Start()
	eng.RunUntil(10 * sim.Millisecond)
	// ~10 rounds of 2 senders.
	if in.Tracker.Started < 16 || in.Tracker.Started > 24 {
		t.Fatalf("started %d responses over 10 rounds", in.Tracker.Started)
	}
}

// TestIncastRoundsOverlap: rounds start every Period whatever the previous
// round's progress. Two 2 MB responses share a 25 Gbps receiver link, so a
// round takes at least 1.28 ms, and with a 500 µs period the third round
// has started before the first has finished. Every response still
// completes, and the receiver takes at least every byte sent.
func TestIncastRoundsOverlap(t *testing.T) {
	eng := sim.NewEngine()
	st := topo.NewStar(eng, 3, topo.DefaultTestbed())
	in := Incast{
		Senders:       st.Hosts[1:],
		Receiver:      st.Hosts[0],
		ResponseBytes: 2_000_000,
		Period:        500 * sim.Microsecond,
		Rounds:        3,
	}
	in.Start()
	eng.RunUntil(2*in.Period - 1)
	if in.Tracker.Started != 2*2 {
		t.Fatalf("before the third round: started %d responses, want 4", in.Tracker.Started)
	}
	eng.RunUntil(2 * in.Period)
	if in.Tracker.Started != 3*2 || in.Tracker.Completed != 0 {
		t.Fatalf("at the third round: started %d, completed %d, want 6 started and none completed", in.Tracker.Started, in.Tracker.Completed)
	}
	eng.RunUntil(sim.Second)
	if !in.Tracker.AllDone() || in.Tracker.Bytes != 6*in.ResponseBytes {
		t.Fatalf("completed %d/%d responses of %d bytes in all, want 6 of %d", in.Tracker.Completed, in.Tracker.Started, in.Tracker.Bytes, 6*in.ResponseBytes)
	}
	if rx := st.Hosts[0].RxBytes; rx < uint64(6*in.ResponseBytes) {
		t.Fatalf("receiver took %d bytes, fewer than the %d sent", rx, 6*in.ResponseBytes)
	}
}
