package experiments

import (
	"aqueue/internal/cc"
	"aqueue/internal/control"
	"aqueue/internal/harness"
	"aqueue/internal/ratelimit"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
	"aqueue/internal/workload"
)

// wlSpec declares one entity of a workload-completion experiment: its CC,
// its VM count, its share weight, and how many trace flows it must finish.
type wlSpec struct {
	name   string
	cc     string
	vms    int
	weight float64
	flows  int
}

// wlRun executes the entities' closed-loop web-search workloads on a
// dumbbell under the given approach and returns each entity's workload
// completion time. Each VM of an entity replays flows from the entity's
// shared trace queue one after another ("runs the web search trace",
// §5.2): concurrency equals the VM count, which is exactly what makes the
// four approaches differ. The trace is drawn from p.Seed.
func wlRun(p harness.Params, approach Approach, specs []wlSpec) []sim.Time {
	eng := sim.NewEngine()
	spec := topo.DefaultSim()
	totalVMs := 0
	for _, s := range specs {
		totalVMs += s.vms
	}
	d := topo.NewDumbbell(eng, totalVMs, totalVMs, spec, spec)

	var totalWeight float64
	for _, s := range specs {
		totalWeight += s.weight
	}

	ctrl := control.NewController(spec.Rate)
	var drl *ratelimit.DRL
	if approach == DRL {
		// The DRL control loop re-programs every sender VM's token buckets
		// each interval.
		drl = ratelimit.NewDRL(d.Eng, spec.Rate)
	}

	r := sim.NewRand(p.Seed)
	// All entities replay the same drawn trace ("they both run the web
	// search trace", §5.2), so completion-time ratios compare bandwidth
	// shares, not sampling luck.
	maxFlows := 0
	for _, s := range specs {
		if s.flows > maxFlows {
			maxFlows = s.flows
		}
	}
	trace := make([]int64, maxFlows)
	var ws workload.WebSearch
	for j := range trace {
		trace[j] = ws.Sample(r)
	}
	trackers := make([]*stats.FCT, len(specs))
	vmBase := 0
	for i, s := range specs {
		srcs := d.Left[vmBase : vmBase+s.vms]
		dsts := d.Right[vmBase : vmBase+s.vms]
		vmBase += s.vms

		share := units.BitRate(float64(spec.Rate) * s.weight / totalWeight)
		var opt transport.Options
		switch approach {
		case AQ:
			opt.IngressAQ = mustGrant(ctrl, control.Request{
				Tenant:   s.name,
				Mode:     control.Weighted,
				Weight:   s.weight,
				CC:       ccTypeFor(s.cc),
				Limit:    aqLimitFor(spec),
				Position: control.Ingress,
			}, d.S1.Ingress)
		case PRL:
			perVM := units.BitRate(float64(share) / float64(s.vms))
			for _, h := range srcs {
				ratelimit.AttachPRL(h, perVM)
			}
		case DRL:
			perVM := units.BitRate(float64(share) / float64(s.vms))
			for _, h := range srcs {
				drl.AddVM(h, ratelimit.Profile{
					OutMin: perVM,
					OutMax: spec.Rate,
					InMax:  spec.Rate,
				})
			}
		}
		opt.EcnCapable = ecnCapable(s.cc)

		sizes := trace[:s.flows]
		tr := &stats.FCT{}
		trackers[i] = tr
		runClosedLoop(srcs, dsts, sizes, ccFactory(s.cc), opt, tr, r, func() {
			if approach == AQ {
				// The entity is done; return its share to the others
				// (weighted-mode rebalance, §4.1).
				ctrl.SetActive(opt.IngressAQ, false)
			}
		})
	}
	if drl != nil {
		drl.Start()
	}
	eng.RunUntil(60 * sim.Second) // generous; closed loops finish well before
	out := make([]sim.Time, len(specs))
	for i, tr := range trackers {
		if !tr.AllDone() {
			// Report the horizon so a stuck run is visible, not fatal.
			out[i] = 60 * sim.Second
			continue
		}
		out[i] = tr.CompletionTime()
	}
	return out
}

// runClosedLoop starts one closed-loop worker per source VM: each worker
// repeatedly takes the next flow from the shared trace and runs it to a
// random destination VM of the entity, until the trace is exhausted.
//
// The shared cursor and random stream are drawn from completion callbacks
// at runtime, in the engine's deterministic event order.
func runClosedLoop(srcs, dsts []*topo.Host, sizes []int64,
	fac cc.Factory, opt transport.Options, tr *stats.FCT,
	r *sim.Rand, onAllDone func()) {
	next := 0
	var launch func(vm *topo.Host)
	launch = func(vm *topo.Host) {
		if next >= len(sizes) {
			if tr.Completed == len(sizes) && onAllDone != nil {
				onAllDone()
			}
			return
		}
		size := sizes[next]
		next++
		dst := dsts[r.Intn(len(dsts))]
		s := transport.NewSender(vm, dst, size, fac(), opt)
		start := vm.Engine().Now()
		tr.FlowStarted(size)
		s.OnComplete = func(now sim.Time) {
			tr.FlowDone(start, now)
			launch(vm)
		}
		s.Start(sim.Time(r.Intn(20_000)))
	}
	for _, vm := range srcs {
		launch(vm)
	}
}
