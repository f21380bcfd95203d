package topo

import (
	"testing"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// TestBuildIdentities pins where the one wiring body of a topology draws
// its identities under each placement. On one engine every pipe stays on
// lane 0, AQM and jitter seeds come from the engine's sequences (the ones
// NewPipe draws), and hosts share the engine's flow sequence. On a cluster
// every pipe gets the next lane in construction order, seeds come from the
// cluster's sequences — never its engine's — and host h of H draws flow
// IDs h+1, h+1+H, ... These cluster draws are the identities the recorded
// golden fingerprints were built under. Both placements run the same body,
// so a reordered body shows as lanes out of construction order, and a
// placement drawing from the wrong sequence as a wrong next draw — either
// would change the seeds of every pipe in every run.
func TestBuildIdentities(t *testing.T) {
	spec := DefaultSim() // jitter on: every pipe draws a topo.pipe seed too
	dumbbell := func(d *Dumbbell) (pipes []*Pipe, hosts []*Host) {
		pipes = []*Pipe{d.Bottleneck, d.ReverseTrunk}
		for i, h := range d.Left {
			pipes = append(pipes, h.Uplink(), d.S1.Port(1+i))
		}
		for i, h := range d.Right {
			pipes = append(pipes, h.Uplink(), d.S2.Port(1+i))
		}
		return pipes, append(append([]*Host(nil), d.Left...), d.Right...)
	}
	star := func(s *Star) (pipes []*Pipe, hosts []*Host) {
		for i, h := range s.Hosts {
			pipes = append(pipes, h.Uplink(), s.Down[i])
		}
		return pipes, s.Hosts
	}
	shapes := []struct {
		name      string
		onEngine  func(*sim.Engine) ([]*Pipe, []*Host)
		onCluster func(*sim.Cluster) ([]*Pipe, []*Host)
	}{
		{"dumbbell",
			func(e *sim.Engine) ([]*Pipe, []*Host) { return dumbbell(NewDumbbell(e, 2, 2, spec, spec)) },
			func(c *sim.Cluster) ([]*Pipe, []*Host) { return dumbbell(NewDumbbellIn(c, 2, 2, spec, spec)) }},
		{"star",
			func(e *sim.Engine) ([]*Pipe, []*Host) { return star(NewStar(e, 4, spec)) },
			func(c *sim.Cluster) ([]*Pipe, []*Host) { return star(NewStarIn(c, 4, spec)) }},
	}
	for _, sh := range shapes {
		t.Run(sh.name+"/engine", func(t *testing.T) {
			eng := sim.NewEngine()
			pipes, hosts := sh.onEngine(eng)
			for i, p := range pipes {
				if p.Lane() != 0 {
					t.Errorf("pipe %d on lane %d, want 0", i, p.Lane())
				}
			}
			next := uint64(len(pipes)) + 1
			for _, seq := range []string{"queue.aqm", "topo.pipe"} {
				if got := eng.NextIn(eng.SeqDomain(seq)); got != next {
					t.Errorf("engine's next %s draw = %d, want %d", seq, got, next)
				}
			}
			for i, h := range hosts {
				if got := h.NextFlowID(); got != packet.FlowID(i+1) {
					t.Errorf("host %d's first flow ID = %d, want %d (shared engine sequence)", i, got, i+1)
				}
			}
		})
		t.Run(sh.name+"/cluster-1", func(t *testing.T) {
			c := sim.NewCluster(1)
			pipes, hosts := sh.onCluster(c)
			for i, p := range pipes {
				if p.Lane() != uint32(i+1) {
					t.Errorf("pipe %d on lane %d, want %d", i, p.Lane(), i+1)
				}
			}
			next := uint64(len(pipes)) + 1
			eng := c.Engine()
			for _, seq := range []string{"queue.aqm", "topo.pipe"} {
				if got := c.NextIn(c.SeqDomain(seq)); got != next {
					t.Errorf("cluster's next %s draw = %d, want %d", seq, got, next)
				}
				if got := eng.NextIn(eng.SeqDomain(seq)); got != 1 {
					t.Errorf("the cluster's engine drew %s (next = %d, want 1)", seq, got)
				}
			}
			if got := c.NextLane(); got != uint32(next) {
				t.Errorf("cluster's next lane = %d, want %d", got, next)
			}
			total := len(hosts)
			for i, h := range hosts {
				a, b := h.NextFlowID(), h.NextFlowID()
				if a != packet.FlowID(i+1) || b != packet.FlowID(i+1+total) {
					t.Errorf("host %d drew flow IDs %d, %d; want %d, %d", i, a, b, i+1, i+1+total)
				}
			}
		})
	}
}
