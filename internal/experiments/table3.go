package experiments

import (
	"fmt"

	"aqueue/internal/control"
	"aqueue/internal/harness"
	"aqueue/internal/packet"
	"aqueue/internal/ratelimit"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
	"aqueue/internal/workload"
)

// Table3Row is VM A's measured rate ranges under one approach.
type Table3Row struct {
	OutLo, OutHi float64
	InLo, InHi   float64
}

// table3Run builds the Figure 2 star (four VMs, 25 Gbps): VM A sends the
// web-search trace to B, C and D while B, C and D send to A, everyone
// saturating, for p.Horizon with the workload drawn from p.Seed. VM A's
// traffic profile is 5 Gbps outbound and 5 Gbps inbound. The function
// returns the windowed min~max of A's outbound and inbound rates.
func table3Run(p harness.Params, approach Approach) Table3Row {
	c := p.Cluster()
	defer c.Close()
	spec := testbedSpec()
	st := topo.NewStarIn(c, 4, spec)
	horizon := p.Horizon
	warmup := horizon / 4
	window := horizon / 12
	const profile = 5 * units.Gbps
	a := st.Hosts[0]

	// Outbound = data from A delivered anywhere; inbound = data delivered
	// to A. The hooks read the receiving host's own clock: under
	// partitioning the run has no single "the" engine to ask for the time.
	outMeter := stats.NewMeter(sim.Millisecond)
	inMeter := stats.NewMeter(sim.Millisecond)
	for _, h := range st.Hosts {
		h := h
		h.RxHook = func(pkt *packet.Packet) {
			if pkt.Kind != packet.Data {
				return
			}
			if pkt.Src == a.ID() {
				outMeter.Add(h.Engine().Now(), pkt.Size)
			}
			if pkt.Dst == a.ID() {
				inMeter.Add(h.Engine().Now(), pkt.Size)
			}
		}
	}

	ctrl := control.NewController(spec.Rate)
	outAQ := make(map[packet.HostID]packet.AQID)
	inAQ := make(map[packet.HostID]packet.AQID)
	var drl *ratelimit.DRL
	switch approach {
	case AQ:
		profiles := make([]control.HoseProfile, len(st.Hosts))
		for i, h := range st.Hosts {
			profiles[i] = control.HoseProfile{VM: h.ID(), Out: profile, In: profile}
		}
		grants, err := ctrl.GrantHose(profiles, spec.Rate, st.SW.Ingress, st.SW.Egress, aqLimitFor(spec))
		if err != nil {
			panic(err)
		}
		for _, g := range grants {
			outAQ[g.VM] = g.Out.ID
			inAQ[g.VM] = g.In.ID
		}
	case PRL:
		for _, h := range st.Hosts {
			ratelimit.AttachPRL(h, profile)
		}
	case DRL:
		// All VMs live in domain 0 (NewStarIn keeps the hosts together for
		// exactly this reason), so the DRL control loop runs there.
		drl = ratelimit.NewDRL(st.Eng, spec.Rate, ratelimit.DefaultInterval)
		for _, h := range st.Hosts {
			drl.AddVM(h, ratelimit.Profile{OutMin: profile, OutMax: profile, InMax: profile})
		}
		drl.Start()
	}

	r := sim.NewRand(p.Seed)
	var ws workload.WebSearch
	// Continuous closed-loop workers: A sends to the others; the others
	// send to A. Eight workers each keep every direction saturated.
	startWorkers := func(src *topo.Host, dsts []*topo.Host, workers int) {
		for w := 0; w < workers; w++ {
			var loop func()
			loop = func() {
				dst := dsts[r.Intn(len(dsts))]
				opt := transport.Options{
					IngressAQ: outAQ[src.ID()],
					EgressAQ:  inAQ[dst.ID()],
				}
				s := transport.NewSender(src, dst, ws.Sample(r), ccFactory("cubic")(), opt)
				s.OnComplete = func(sim.Time) { loop() }
				s.Start(sim.Time(r.Intn(50_000)))
			}
			loop()
		}
	}
	others := []*topo.Host{st.Hosts[1], st.Hosts[2], st.Hosts[3]}
	startWorkers(a, others, 8)
	for _, h := range others {
		startWorkers(h, []*topo.Host{a}, 8)
	}
	c.RunUntil(horizon)

	rangeOf := func(m *stats.Meter) (float64, float64) {
		lo, hi := -1.0, -1.0
		for from := warmup; from+window <= horizon; from += window {
			g := m.Gbps(from, from+window)
			if lo < 0 || g < lo {
				lo = g
			}
			if g > hi {
				hi = g
			}
		}
		return lo, hi
	}
	var row Table3Row
	row.OutLo, row.OutHi = rangeOf(outMeter)
	row.InLo, row.InHi = rangeOf(inMeter)
	return row
}

// Table3 reproduces Table 3: VM A's outbound and inbound rate ranges under
// the four approaches, plus a second AQ run standing in for the paper's
// independent simulator measurement (different seed; documented
// substitution). Every run lasts 400 ms on seed 1 (424242 for the
// stand-in) whatever p asks for.
func Table3(p harness.Params) *harness.Result {
	p.Horizon = 400 * sim.Millisecond
	t := &harness.Table{
		Title:  "Table 3: outbound and inbound rates of VM A (profile 5 Gbps each way)",
		Header: []string{"approach", "outbound (Gbps)", "inbound (Gbps)"},
	}
	t.AddRow("Ideal", "5.00", "5.00")
	p.Seed = 1
	rows := []Table3Row{
		table3Run(p, PQ),
		table3Run(p, PRL),
		table3Run(p, DRL),
		table3Run(p, AQ),
	}
	labels := []string{"PQ", "PRL", "DRL", "AQ-testbed"}
	for i, r := range rows {
		t.AddRow(labels[i],
			fmt.Sprintf("%.1f ~ %.1f", r.OutLo, r.OutHi),
			fmt.Sprintf("%.1f ~ %.1f", r.InLo, r.InHi))
	}
	p.Seed = 424242
	sim2 := table3Run(p, AQ)
	t.AddRow("AQ-simulator",
		fmt.Sprintf("%.1f ~ %.1f", sim2.OutLo, sim2.OutHi),
		fmt.Sprintf("%.1f ~ %.1f", sim2.InLo, sim2.InHi))
	return tables(t)
}
