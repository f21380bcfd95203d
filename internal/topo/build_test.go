package topo

import (
	"testing"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// TestBuildIdentities pins where the one wiring body of a topology draws
// its identities: pipe i in construction order takes the i-th draws of the
// engine's "queue.aqm" and "topo.pipe" sequences (the AQM and jitter
// seeds), and every host draws flow IDs from the engine's one shared
// "transport.flow" sequence. A reordered body shows as a jitter stream
// out of construction order, and a draw from anywhere else as a wrong next
// draw — either would change the seeds of every pipe in every run. The
// cluster-1 arm builds on a cluster's engine, as the service does, and
// must draw exactly the same.
func TestBuildIdentities(t *testing.T) {
	spec := DefaultSim() // jitter on: every pipe draws a topo.pipe seed too
	dumbbell := func(e *sim.Engine) (pipes []*Pipe, hosts []*Host) {
		d := NewDumbbell(e, 2, 2, spec, spec)
		pipes = []*Pipe{d.Bottleneck, d.ReverseTrunk}
		for i, h := range d.Left {
			pipes = append(pipes, h.Uplink(), d.S1.Port(1+i))
		}
		for i, h := range d.Right {
			pipes = append(pipes, h.Uplink(), d.S2.Port(1+i))
		}
		return pipes, append(append([]*Host(nil), d.Left...), d.Right...)
	}
	star := func(e *sim.Engine) (pipes []*Pipe, hosts []*Host) {
		s := NewStar(e, 4, spec)
		for i, h := range s.Hosts {
			pipes = append(pipes, h.Uplink(), s.Down[i])
		}
		return pipes, s.Hosts
	}
	check := func(t *testing.T, eng *sim.Engine, build func(*sim.Engine) ([]*Pipe, []*Host)) {
		pipes, hosts := build(eng)
		for i, p := range pipes {
			want := sim.NewRand(0x9e3779b9 + uint64(i+1)*0x1234567).Uint64()
			if got := p.rng.Uint64(); got != want {
				t.Errorf("pipe %d's jitter stream is not topo.pipe draw %d", i, i+1)
			}
		}
		next := uint64(len(pipes)) + 1
		for _, seq := range []string{"queue.aqm", "topo.pipe"} {
			if got := eng.NextIn(eng.SeqDomain(seq)); got != next {
				t.Errorf("engine's next %s draw = %d, want %d", seq, got, next)
			}
		}
		// One shared sequence: the first host's second flow takes the ID
		// right after its first, ahead of every other host's.
		ids := []packet.FlowID{hosts[0].NextFlowID(), hosts[0].NextFlowID()}
		for _, h := range hosts[1:] {
			ids = append(ids, h.NextFlowID())
		}
		for i, id := range ids {
			if id != packet.FlowID(i+1) {
				t.Fatalf("flow IDs in draw order %v, want 1..%d", ids, len(ids))
			}
		}
	}
	for _, sh := range []struct {
		name  string
		build func(*sim.Engine) ([]*Pipe, []*Host)
	}{{"dumbbell", dumbbell}, {"star", star}} {
		t.Run(sh.name+"/engine", func(t *testing.T) { check(t, sim.NewEngine(), sh.build) })
		t.Run(sh.name+"/cluster-1", func(t *testing.T) { check(t, sim.NewCluster(1).Engine(), sh.build) })
	}
}
