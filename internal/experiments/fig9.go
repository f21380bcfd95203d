package experiments

import (
	"fmt"

	"aqueue/internal/control"
	"aqueue/internal/harness"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
)

// Fig9Entities is the §5.2 protocol-type experiment: five entities with
// equal weights join the bottleneck one after another; the third is a
// line-rate UDP blast, the others are single CUBIC flows.
var Fig9Entities = []struct {
	Name string
	UDP  bool
}{
	{"tcp-1", false},
	{"tcp-2", false},
	{"udp", true},
	{"tcp-3", false},
	{"tcp-4", false},
}

// Fig9Result carries the per-phase average goodput of every entity.
type Fig9Result struct {
	Phase  sim.Time // phase length
	Series [][]float64
}

// fig9Run runs the staggered-start experiment under PQ or AQ with phases
// of p.Horizon/4. Entity i starts at i*phase; the run ends after
// len(entities)+1 phases. Under AQ the controller re-divides the link
// among the active entities at every join (weighted mode, §4.1).
func fig9Run(p harness.Params, approach Approach) Fig9Result {
	phase := p.Horizon / 4
	eng := sim.NewEngine()
	spec := topo.DefaultSim()
	n := len(Fig9Entities)
	d := topo.NewDumbbell(eng, n, n, spec, spec)
	rc := newRxClassifier(d.Right, n, func(pkt *packet.Packet) int {
		return int(pkt.Dst) - n
	})
	ctrl := control.NewController(spec.Rate)
	for i, e := range Fig9Entities {
		var opt transport.Options
		if approach == AQ {
			id := mustGrant(ctrl, control.Request{Tenant: e.Name, Mode: control.Weighted,
				Weight: 1, Limit: aqLimitFor(spec), Position: control.Ingress}, d.S1.Ingress)
			// Granted but idle until the entity starts sending; the
			// activation is an event on S1's engine.
			ctrl.SetActive(id, false)
			opt.IngressAQ = id
			d.S1.Engine().At(sim.Time(i)*phase, func() { ctrl.SetActive(id, true) })
		}
		src, dst := d.Left[i], d.Right[i]
		start := sim.Time(i) * phase
		if e.UDP {
			u := transport.NewUDPSender(src, dst, spec.Rate, opt)
			u.Start(start)
		} else {
			s := transport.NewSender(src, dst, 0, ccFactory("cubic")(), opt)
			s.Start(start)
		}
	}
	horizon := sim.Time(n+1) * phase
	eng.RunUntil(horizon)

	res := Fig9Result{Phase: phase, Series: make([][]float64, n)}
	for i := 0; i < n; i++ {
		series := make([]float64, n+1)
		for ph := 0; ph <= n; ph++ {
			from := sim.Time(ph)*phase + phase/5 // skip the join transient
			to := sim.Time(ph+1) * phase
			series[ph] = rc.Gbps(i, from, to)
		}
		res.Series[i] = series
	}
	return res
}

// Fig9 reproduces Figure 9: per-phase throughput of TCP and UDP entities
// under PQ (a) and AQ (b).
func Fig9(p harness.Params) *harness.Result {
	mk := func(ap Approach, title string) *harness.Table {
		r := fig9Run(p, ap)
		t := &harness.Table{Title: title, Header: []string{"entity"}}
		for ph := 0; ph < len(Fig9Entities)+1; ph++ {
			t.Header = append(t.Header, fmt.Sprintf("phase %d (n=%d)", ph+1, min(ph+1, len(Fig9Entities))))
		}
		for i, e := range Fig9Entities {
			row := []any{e.Name}
			for _, v := range r.Series[i] {
				row = append(row, v)
			}
			t.AddRow(row...)
		}
		return t
	}
	return tables(mk(PQ, "Figure 9(a): throughput with PQ (Gbps per phase)"),
		mk(AQ, "Figure 9(b): throughput with AQ (Gbps per phase)"))
}
