package workload

import (
	"aqueue/internal/cc"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
)

// Incast drives the classic partition-aggregate pattern: every sender
// transmits one response of ResponseBytes to the single receiver at the
// same instant, and a new round starts Period after the previous round's
// first transmission. This is the burstiest inbound pattern a VM's traffic
// profile has to survive.
type Incast struct {
	Senders  []*topo.Host
	Receiver *topo.Host
	// ResponseBytes per sender per round.
	ResponseBytes int64
	// Period between round starts. Rounds start at 0, Period, 2·Period, …
	// whether or not the previous one has finished: a response that
	// outlives the period overlaps the next round's, which each sender
	// sends on a flow of its own.
	Period sim.Time
	// Rounds to run; 0 means until the horizon.
	Rounds int
	// CC builds the controller for each response flow.
	CC cc.Factory
	// Opt is applied to every flow (AQ tags etc.).
	Opt transport.Options
	// Tracker records per-response completions.
	Tracker *stats.FCT
}

// Start schedules the incast rounds. Each sender drives its own rounds on
// a timer of its own at the fixed times 0, Period, 2·Period, …: round
// starts are construction data, not runtime coordination.
func (in *Incast) Start() {
	if in.Tracker == nil {
		in.Tracker = &stats.FCT{}
	}
	if in.Period <= 0 {
		in.Period = sim.Millisecond
	}
	if in.CC == nil {
		in.CC = func() cc.Algorithm { return cc.NewDCTCP() }
	}
	for _, src := range in.Senders {
		src := src
		eng := src.Engine()
		round := 0
		var roundT *sim.Timer
		roundT = eng.NewTimer(func() {
			if in.Rounds > 0 && round >= in.Rounds {
				return
			}
			round++
			s := transport.NewSender(src, in.Receiver, in.ResponseBytes, in.CC(), in.Opt)
			start := eng.Now()
			tr := in.Tracker
			tr.FlowStarted(in.ResponseBytes)
			s.OnComplete = func(now sim.Time) { tr.FlowDone(start, now) }
			s.Start(0)
			roundT.ArmAfter(in.Period)
		})
		roundT.ArmAfter(0)
	}
}
