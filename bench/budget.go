package main

// The layer budget is ROADMAP item 1's table measured from outside: the
// estimated self time of layer L in a workload is L's feeder cost times
// L's op count in one iteration of that workload. Feeders that necessarily
// drive a lower layer (a pipe cannot drain without engine events, a host
// cannot receive without releasing to the pool) have that layer's share
// taken back out, so the rows are exclusive and may be summed; whatever
// the sum leaves of the measured run time is bench.unattributed_pct. The
// differences are not clamped: a remainder that comes out negative says the
// subtraction's noise is larger than the cost it was after.

// budgetLayers is the row order of the budget, one row per module.
var budgetLayers = []string{"sim", "packet", "queue", "topo", "core", "transport", "cc", "fluid", "control", "service"}

// pipeSelf is a pipe hop's own cost: the drain feeder less the FIFO, the
// pool round trip and the engine events it contains.
func pipeSelf(c feederCosts) float64 {
	return c.PipeNsPerPkt - c.FifoNsPerPkt - c.PoolNsPerGetPut - c.PipeEventsPerPkt*c.PipeHeapNs
}

// switchSelf is a switch traversal's own cost: the switch feeder less the
// pipe feeder it ends in.
func switchSelf(c feederCosts) float64 { return c.SwitchNsPerPkt - c.PipeNsPerPkt }

// hostSelf is a host delivery's own cost: the host feeder less the pool
// round trip.
func hostSelf(c feederCosts) float64 { return c.HostNsPerPkt - c.PoolNsPerGetPut }

// simBudget estimates one iteration's self time per layer, in ns, for a
// simulation workload.
func simBudget(n opCounts, c feederCosts) map[string]float64 {
	b := make(map[string]float64)
	// UDP ticks are the one event class known to ride the wheel; the rest
	// is priced as heap events.
	wheel := float64(n.UDPSent)
	b["sim"] = (float64(n.Events)-wheel)*c.HeapNsPerEvent + wheel*c.WheelNsPerRearm
	b["packet"] = float64(n.PoolGets) * c.PoolNsPerGetPut
	b["queue"] = float64(n.FifoEnq+n.FifoDrop) * c.FifoNsPerPkt
	b["topo"] = float64(n.PktHops)*pipeSelf(c) + float64(n.SwitchRx)*switchSelf(c) + float64(n.HostRx)*hostSelf(c)
	hits := float64(n.Lookups - n.Misses)
	b["core"] = (hits-float64(n.AQDrops)-float64(n.AQMarks))*c.PassNs +
		float64(n.AQDrops)*c.DropNs + float64(n.AQMarks)*c.MarkNs +
		float64(n.Misses)*(c.PassNs-c.UpdateNs) +
		float64(n.TaggedEE)*c.FluidEpochNs
	b["transport"] = float64(n.TCPData)*c.B2BNsPerPkt + float64(n.UDPSent)*c.UDPNsPerPkt +
		float64(n.NewSenders)*c.NewSenderNs
	for alg, acks := range n.AcksByAlg {
		b["cc"] += float64(acks) * c.OnAckNs[alg]
	}
	// Tagged cohort feeders include the AQ epoch the core row already
	// claims; every stepped tagged entity-epoch is charged the remainder.
	b["fluid"] = float64(n.EEByModel["fixed"])*(c.FixedNsPerEE-c.FluidEpochNs) +
		float64(n.EEByModel["loss"])*(c.LossNsPerEE-c.FluidEpochNs) +
		float64(n.EEByModel["ecn"])*(c.ECNNsPerEE-c.FluidEpochNs) +
		float64(n.SkippedEE)*c.QuiescentNsEE
	return b
}

// daemonBudget estimates one daemon_session iteration. The wire client
// (rtts: its round trips of one iteration, by verb) cannot read the fabric's
// counters at pipe granularity, so everything the
// in-process fabric does — the simulation included — is the service row,
// priced by driving the same script through Fabric.ScriptAt/AdvanceWindow;
// the control row is the controller dispatch plus the loopback floor of
// every request.
func daemonBudget(rtts map[string][]float64, c feederCosts) map[string]float64 {
	reqs := func(verb string) float64 { return float64(len(rtts[verb])) }
	var total float64
	for verb := range rtts {
		total += reqs(verb)
	}
	return map[string]float64{
		"service": daemonWindows*c.AdvanceWindowUs*1e3 + reqs("stats")*c.SnapshotUs*1e3 +
			reqs("attach")*c.AttachUs*1e3,
		"control": reqs("grant")*c.DispatchGrantNs +
			(reqs("set_weight")+reqs("set_rate"))*c.DispatchSetWeightNs +
			total*c.WireHelloUs*1e3,
	}
}

// budgetShares converts a budget to percentages of the measured run time
// and appends what is left.
func budgetShares(b map[string]float64, runNS float64) (shares map[string]float64, unattributed float64) {
	shares = make(map[string]float64)
	var sum float64
	for _, l := range budgetLayers {
		shares[l] = 100 * b[l] / runNS
		sum += b[l]
	}
	return shares, 100 * (runNS - sum) / runNS
}
