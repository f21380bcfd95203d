package topo

import (
	"fmt"
	"testing"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// Every lookup layout is chosen by ident.Index from the IDs it holds, and
// FuzzIndex holds its slice to its map. The run-level test below forces the
// map the way production reaches it — one far-away ID per AQ table and per
// host — and holds the whole run to the dense build.

const (
	farFlow = packet.FlowID(1 << 40)
	farAQ   = packet.AQID(1 << 20)
)

// countingHandler counts the packets dispatched to one flow.
type countingHandler struct{ n int }

func (c *countingHandler) Handle(*packet.Packet) { c.n++ }

// layoutRun drives a fixed packet script through a dumbbell — three AQs at
// S1's ingress (one dropping, one ECN-marking, one stamping delay), one at
// S2's egress, an untagged stream and a table miss — and returns every
// counter the run produced. With sparse set, each table also holds a
// far-away AQ and each host a far-away flow, so every AQ lookup and flow
// dispatch of the run is served by a map.
func layoutRun(t *testing.T, sparse bool) string {
	t.Helper()
	eng := sim.NewEngine()
	spec := LinkSpec{Rate: 10 * units.Gbps, Delay: 2 * sim.Microsecond, QueueLimit: 30 * 1000, ECNThreshold: 10 * 1000}
	d := NewDumbbell(eng, 2, 2, spec, spec)
	d.S1.Ingress.Deploy(core.Config{ID: 1, Rate: units.Gbps, Limit: 20 * 1000})
	d.S1.Ingress.Deploy(core.Config{ID: 2, Rate: 2 * units.Gbps, CC: core.ECNType, ECNThreshold: 5 * 1000})
	d.S1.Ingress.Deploy(core.Config{ID: 3, Rate: 2 * units.Gbps, CC: core.DelayType})
	d.S2.Egress.Deploy(core.Config{ID: 1, Rate: 3 * units.Gbps, Limit: 30 * 1000})

	hosts := append(append([]*Host(nil), d.Left...), d.Right...)
	var handlers []*countingHandler
	var delaySum sim.Time
	for _, h := range hosts {
		for f := packet.FlowID(1); f <= 5; f++ {
			c := &countingHandler{}
			handlers = append(handlers, c)
			h.Register(f, c)
		}
		h.RxHook = func(p *packet.Packet) { delaySum += p.VirtualDelay }
	}
	if sparse {
		for _, sw := range []*Switch{d.S1, d.S2} {
			sw.Ingress.Deploy(core.Config{ID: farAQ, Rate: units.Gbps})
			sw.Egress.Deploy(core.Config{ID: farAQ, Rate: units.Gbps})
		}
		for _, h := range hosts {
			h.Register(farFlow, &countingHandler{})
		}
	}

	pool := packet.PoolFor(eng)
	for i := 0; i < 3000; i++ {
		src, dst := d.Left[i%2], d.Right[(i/2)%2]
		flow := packet.FlowID(1 + i%6) // flow 6 has no handler: orphans
		eng.At(sim.Time(i)*300, func() {
			p := pool.NewData(src.ID(), dst.ID(), flow, int64(i), 1000)
			p.IngressAQ = packet.AQID(i % 5) // 0 untagged, 4 a table miss
			p.EgressAQ = packet.AQID(i % 2)
			p.EcnCapable = i%5 == 2
			src.Send(p)
		})
	}
	eng.Run()

	out := fmt.Sprintf("events %d delay %d\n", eng.Processed, delaySum)
	for _, sw := range []*Switch{d.S1, d.S2} {
		out += fmt.Sprintf("%v %+v in %+v eg %+v\n", sw, sw.Stats(), sw.Ingress.Stats(), sw.Egress.Stats())
		for _, tbl := range []*core.Table{sw.Ingress, sw.Egress} {
			for _, id := range tbl.IDs() {
				if id != farAQ {
					out += fmt.Sprintf("  aq %d %+v gap %.3f\n", id, tbl.Lookup(id).Stats(), tbl.Lookup(id).Gap())
				}
			}
		}
	}
	for _, h := range hosts {
		out += fmt.Sprintf("host %d %+v\n", h.ID(), h.Stats())
	}
	for _, c := range handlers {
		out += fmt.Sprintf("%d ", c.n)
	}
	return out + fmt.Sprintf("\ntrunk %+v %+v", d.Bottleneck.Stats(), d.Bottleneck.Queue().Stats())
}

// TestMapLayoutRunMatchesDense is the run-level half: the same traffic
// through the same topology must leave every counter — AQ drops, marks,
// gaps and stamped delays, table lookups and misses, queue drops, per-flow
// deliveries, orphans, the engine's event count — identical whether slices
// or maps served the lookups.
func TestMapLayoutRunMatchesDense(t *testing.T) {
	dense, mapped := layoutRun(t, false), layoutRun(t, true)
	if dense != mapped {
		t.Fatalf("map-layout run diverged from the dense run\ndense:\n%s\nmap:\n%s", dense, mapped)
	}
}
